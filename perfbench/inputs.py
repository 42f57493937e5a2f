"""Seeded input generator for the three benchmark workloads.

Each workload draws its operations from a fixed pool.  Pool entry ``i``
is generated from ``random.Random("<workload>:<i>")`` alone, so the
committed references in ``perfbench/ref`` cover every entry; the run
seed only chooses the order in which entries are used.  ``day_compare``
and ``cli_mix`` use entries without repetition until the run's time is
up.  ``fleet_minutely`` runs whole passes over its pool (see
:func:`schedule`), so every run attempts the same datasheets.  Only
``random.Random`` is used: its string seeding, ``uniform()``,
``choice()`` and ``shuffle()`` are stable across Python versions.

Generated numbers are written at full ``repr`` precision.  No seed,
range or rounding here was chosen to avoid the operating points where
``pv_model.mpp`` does not converge; those operations fail and are
counted as failures.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("day_compare", "fleet_minutely", "cli_mix")

# The day_compare and cli_mix pools cap the operations in one run.  They
# are several times what a run executes today, so a much faster program
# still runs most of its budget before the cap.  One pass over the
# fleet_minutely pool takes 35-55 s today on the machine the references
# were recorded on (machine facts in ref/fleet_minutely.json.gz).
DAY_POOL = 24
FLEET_POOL = 128
CLI_PER_KIND = 24
CLI_KINDS = (
    "simulate_csv",
    "simulate_report",
    "compare_json",
    "pv_curve",
    "design_boost",
    "design_lcl",
    "check_resonance",
)

# Bundled reference module (src/pvgrid/scenarios/case*.json).
BASE_MODULE = {"p_mp": 213.15, "v_mp": 29.0, "i_mp": 7.35, "v_oc": 36.3, "i_sc": 7.84}
GRID = {"v_phase": 230.0, "f": 50.0, "v_dc": 700.0}
DAY_S = 86400.0


def pool_size(workload: str) -> int:
    return {
        "day_compare": DAY_POOL,
        "fleet_minutely": FLEET_POOL,
        "cli_mix": CLI_PER_KIND * len(CLI_KINDS),
    }[workload]


def _doc_text(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def spec_key(spec: dict) -> str:
    """Digest of an operation's complete input, used to look up its reference."""
    canon = json.dumps(spec, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


# ---------------------------------------------------------------------------
# Building blocks
# ---------------------------------------------------------------------------


def _datasheet(rng: random.Random) -> dict:
    """A perturbation of the bundled module: 60 or 72 cells, ratings within ±15%."""
    n_cells = rng.choice((60, 72))
    sv = rng.uniform(0.85, 1.15) * n_cells / 60.0
    si = rng.uniform(0.85, 1.15)
    v_oc = BASE_MODULE["v_oc"] * sv
    i_sc = BASE_MODULE["i_sc"] * si
    # Shape ratios of the bundled module (v_mp/v_oc = 0.799, i_mp/i_sc = 0.9375),
    # moved by up to ±2% and ±1%.  A larger i_mp/i_sc can leave no physical
    # shunt resistance, which calibration rightly rejects as InfeasibleSpec.
    v_mp = v_oc * (BASE_MODULE["v_mp"] / BASE_MODULE["v_oc"]) * rng.uniform(0.98, 1.02)
    i_mp = i_sc * (BASE_MODULE["i_mp"] / BASE_MODULE["i_sc"]) * rng.uniform(0.99, 1.01)
    return {
        "p_mp": v_mp * i_mp,
        "v_mp": v_mp,
        "i_mp": i_mp,
        "v_oc": v_oc,
        "i_sc": i_sc,
        "n_cells": n_cells,
        "alpha_isc": 0.00102 * rng.uniform(0.85, 1.15),
        "beta_voc": -0.0036 * rng.uniform(0.85, 1.15),
    }


def _clear_sky(rng: random.Random) -> tuple[float, float, float]:
    """Sunrise, sunset (s) and peak irradiance (W/m²) of one day."""
    sunrise = rng.uniform(5.0, 7.5) * 3600.0
    sunset = rng.uniform(17.0, 20.0) * 3600.0
    return sunrise, sunset, rng.uniform(700.0, 1100.0)


def _sun(t: float, sunrise: float, sunset: float, peak: float) -> float:
    if not sunrise < t < sunset:
        return 0.0
    return peak * math.sin(math.pi * (t - sunrise) / (sunset - sunrise)) ** 1.5


def _irradiance(rng: random.Random, step_s: float) -> list[dict]:
    """Piecewise-constant irradiance and cell temperature over one day."""
    sunrise, sunset, peak = _clear_sky(rng)
    ambient = rng.uniform(5.0, 30.0)
    cloud = 1.0
    segments = []
    n = int(DAY_S / step_s)
    for k in range(n):
        t = k * step_s
        cloud = min(1.0, max(0.2, cloud + rng.uniform(-0.15, 0.15)))
        g = _sun(t + 0.5 * step_s, sunrise, sunset, peak) * cloud
        t_cell = ambient + 0.03 * g + rng.uniform(-1.0, 1.0)
        segments.append({"t_start": t, "g": g, "t_cell": t_cell})
    return segments


def _load(rng: random.Random) -> list[dict]:
    """Quarter-hour load: p and q of a feeder with a daytime hump."""
    segments = []
    for k in range(96):
        t = k * 900.0
        hump = 0.5 + 0.5 * math.sin(math.pi * t / DAY_S)
        p = rng.uniform(40_000.0, 80_000.0) * (0.6 + hump)
        q = p * rng.uniform(0.3, 1.4)
        segments.append({"t_start": t, "p": p, "q": q})
    return segments


def _scenario(scenario_id, module, array, compensator, irradiance, load, t_end, dt):
    return {
        "id": scenario_id,
        "grid": dict(GRID),
        "pv_module": module,
        "pv_array": array,
        "inverter": {"efficiency": 0.997},
        "compensator": compensator,
        "profiles": {"irradiance": irradiance, "load": load},
        "sim": {"t_end": t_end, "dt": dt},
    }


def _array_for(module: dict) -> dict:
    # About 290 V at the string's rated point whatever the cell count.
    return {"n_series": 10 if module.get("n_cells", 60) == 60 else 8, "n_parallel": 47}


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _day_spec(i: int) -> dict:
    rng = random.Random(f"day_compare:{i}")
    irradiance = _irradiance(rng, 3600.0)
    load = _load(rng)
    statcom = {"mode": "statcom", "q_max": rng.uniform(120_000.0, 200_000.0),
               "loss_floor_w": 800.0, "loss_frac": rng.uniform(0.0, 0.01)}
    capbank = {"mode": "fixed_capacitor", "q_rated": rng.uniform(80_000.0, 150_000.0),
               "v_rated": 230.0, "loss_w": 1300.0}
    module = dict(BASE_MODULE)
    docs = {}
    for name, comp in (("statcom", statcom), ("capbank", capbank)):
        docs[name] = _doc_text(_scenario(
            f"day{i}_{name}", module, _array_for(module), comp, irradiance, load,
            DAY_S, 1.0,
        ))
    return {"kind": "day_compare", "docs": docs}


def _fleet_spec(i: int) -> dict:
    rng = random.Random(f"fleet_minutely:{i}")
    module = _datasheet(rng)
    irradiance = _irradiance(rng, 60.0)
    load = _load(rng)
    comp = {"mode": "statcom", "q_max": 200_000.0, "loss_floor_w": 800.0, "loss_frac": 0.0}
    doc = _scenario(f"fleet{i}", module, _array_for(module), comp, irradiance, load,
                    DAY_S, 60.0)
    sweep = {"g": rng.uniform(100.0, 1100.0), "t": rng.uniform(0.0, 65.0)}
    return {"kind": "fleet_minutely", "docs": {"scenario": _doc_text(doc)}, "sweep": sweep}


def _short_case(rng: random.Random, name: str, compensator: dict) -> dict:
    """A variant of the bundled 0.2 s cases: two irradiance steps, one load."""
    irradiance = [
        {"t_start": 0.0, "g": rng.uniform(100.0, 1100.0), "t_cell": rng.uniform(10.0, 60.0)},
        {"t_start": 0.1, "g": rng.uniform(100.0, 1100.0), "t_cell": rng.uniform(10.0, 60.0)},
    ]
    load = [{"t_start": 0.0, "p": rng.uniform(30_000.0, 150_000.0),
             "q": rng.uniform(30_000.0, 180_000.0)}]
    module = dict(BASE_MODULE)
    return _scenario(name, module, _array_for(module), compensator, irradiance, load, 0.2, 0.01)


def _compensator(rng: random.Random) -> dict:
    mode = rng.choice(("none", "fixed_capacitor", "statcom"))
    if mode == "none":
        return {"mode": "none"}
    if mode == "fixed_capacitor":
        return {"mode": "fixed_capacitor", "q_rated": rng.uniform(50_000.0, 150_000.0),
                "v_rated": 230.0, "loss_w": 1300.0}
    return {"mode": "statcom", "q_max": rng.uniform(100_000.0, 200_000.0),
            "loss_floor_w": 800.0, "loss_frac": 0.0}


def _num(x: float) -> str:
    return repr(float(x))


def _cli_spec(i: int) -> dict:
    """One ``pvgrid`` invocation; ``{dir}`` in argv stands for the work directory."""
    kind = CLI_KINDS[i // CLI_PER_KIND]
    rng = random.Random(f"cli_mix:{i}")
    docs: dict[str, str] = {}
    if kind in ("simulate_csv", "simulate_report"):
        docs["case"] = _doc_text(_short_case(rng, f"case{i}", _compensator(rng)))
        argv = ["simulate", "{dir}/case.json"]
        argv += ["-o", "{dir}/out.csv"] if kind == "simulate_csv" else ["--report"]
    elif kind == "compare_json":
        # The two compensators of bundled case2 and case3, on a shared variant.
        base = _short_case(rng, f"cmp{i}", {})
        cap = {"mode": "fixed_capacitor", "q_rated": rng.uniform(50_000.0, 150_000.0),
               "v_rated": 230.0, "loss_w": 1300.0}
        stat = {"mode": "statcom", "q_max": rng.uniform(100_000.0, 200_000.0),
                "loss_floor_w": 800.0, "loss_frac": 0.0}
        docs["case2"] = _doc_text({**base, "id": f"cmp{i}_capbank", "compensator": cap})
        docs["case3"] = _doc_text({**base, "id": f"cmp{i}_statcom", "compensator": stat})
        argv = ["compare", "{dir}/case2.json", "{dir}/case3.json", "--json"]
    elif kind == "pv_curve":
        m = _datasheet(rng)
        argv = ["pv-curve", "--pmp", _num(m["p_mp"]), "--vmp", _num(m["v_mp"]),
                "--imp", _num(m["i_mp"]), "--voc", _num(m["v_oc"]), "--isc", _num(m["i_sc"]),
                "--ncells", str(m["n_cells"]), "--alpha-isc", _num(m["alpha_isc"]),
                "--beta-voc", _num(m["beta_voc"]), "--ns", "10", "--np", "47",
                "--g", _num(rng.uniform(100.0, 1100.0)), "--t", _num(rng.uniform(0.0, 65.0)),
                "--points", "500", "-o", "{dir}/curve.csv"]
    elif kind == "design_boost":
        v_in = rng.uniform(200.0, 400.0)
        argv = ["design-boost", "--p", _num(rng.uniform(20_000.0, 200_000.0)),
                "--vin", _num(v_in), "--vout", _num(v_in * rng.uniform(1.5, 3.0)),
                "--fsw", _num(rng.uniform(2_000.0, 20_000.0))]
    elif kind == "design_lcl":
        argv = ["design-lcl", "--p", _num(rng.uniform(20_000.0, 200_000.0)),
                "--vg", _num(rng.uniform(110.0, 400.0)), "--fg", rng.choice(("50", "60")),
                "--vdc", _num(rng.uniform(500.0, 900.0)),
                "--fsw", _num(rng.uniform(2_000.0, 20_000.0))]
    else:  # check_resonance
        argv = ["check-resonance", "--l1", _num(rng.uniform(0.5e-3, 5e-3)),
                "--l2", _num(rng.uniform(0.1e-3, 2e-3)), "--cg", _num(rng.uniform(5e-6, 60e-6)),
                "--fg", rng.choice(("50", "60")), "--fsw", _num(rng.uniform(2_000.0, 20_000.0))]
    return {"kind": kind, "docs": docs, "argv": argv}


def op_spec(workload: str, index: int) -> dict:
    """Complete input of pool entry ``index`` of ``workload``."""
    return {
        "day_compare": _day_spec,
        "fleet_minutely": _fleet_spec,
        "cli_mix": _cli_spec,
    }[workload](index)


def op_order(workload: str, seed: int) -> list[int]:
    """Pool indices in the order a run with ``seed`` uses them.

    ``cli_mix`` goes in rounds that hold one invocation of every kind, so
    every run has the same mix whatever its length.
    """
    rng = random.Random(f"order:{workload}:{seed}")
    if workload != "cli_mix":
        order = list(range(pool_size(workload)))
        rng.shuffle(order)
        return order
    per_kind = []
    for k in range(len(CLI_KINDS)):
        members = list(range(k * CLI_PER_KIND, (k + 1) * CLI_PER_KIND))
        rng.shuffle(members)
        per_kind.append(members)
    order = []
    for r in range(CLI_PER_KIND):
        kinds = list(range(len(CLI_KINDS)))
        rng.shuffle(kinds)
        order.extend(per_kind[k][r] for k in kinds)
    return order


def schedule(workload: str, seed: int, seconds: float, clock):
    """(warm-up entry, iterator of the entries to time) of one run.

    ``fleet_minutely`` warms up on the entry just past its pool
    and then runs passes over the whole pool in the seed's order, starting
    another pass only while one more, as long as the last, fits in
    ``seconds``; at least one pass runs, so the failures a run counts
    depend on the program and not on how long its operations took.  A
    fixed order keeps ``simulator``'s 32-entry calibration cache from
    hitting, since each pass is longer than the cache.  The other
    workloads warm up on the last entry of the order and run the rest
    until ``seconds`` have passed; ``cli_mix`` checks the clock only
    between rounds.  ``clock`` is a zero-argument function returning
    seconds; the time starts when the first timed entry is drawn.
    """
    order = op_order(workload, seed)
    if workload == "fleet_minutely":
        def passes():
            start = clock()
            while True:
                pass_start = clock()
                yield from order
                now = clock()
                if now + (now - pass_start) > start + seconds:
                    return
        return pool_size(workload), passes()

    step = len(CLI_KINDS) if workload == "cli_mix" else 1

    def until_deadline():
        start = clock()
        for k, index in enumerate(order[:-1]):
            if k % step == 0 and clock() >= start + seconds:
                return
            yield index
    return order[-1], until_deadline()


def pool_digest(workload: str) -> str:
    """Digest over every pool entry; equal to the one stored with the references."""
    h = hashlib.sha256()
    for i in range(pool_size(workload)):
        h.update(spec_key(op_spec(workload, i)).encode("ascii"))
    return h.hexdigest()
