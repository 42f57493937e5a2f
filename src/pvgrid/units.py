"""Engineering-prefix formatting of SI values, for printed results and reports.

It imports nothing, so the design commands print their values without
loading numpy.
"""

from __future__ import annotations

_SI_PREFIXES = (
    (1e9, "G"),
    (1e6, "M"),
    (1e3, "k"),
    (1.0, ""),
    (1e-3, "m"),
    (1e-6, "µ"),
    (1e-9, "n"),
)


def shown_magnitude(value: float) -> float:
    """``|value|`` rounded to the 5 significant digits it is printed with.

    A prefix is chosen from this, so 999.9996 W prints ``1 kW``, not ``1000 W``.
    """
    return abs(float(f"{value:.5g}"))


def format_si(value: float, unit: str) -> str:
    """Format a value with an engineering prefix, 5 significant digits."""
    if value == 0.0:
        return f"0 {unit}" if unit else "0"
    mag = shown_magnitude(value)
    for scale, prefix in _SI_PREFIXES:
        if mag >= scale:
            break  # else the smallest prefix, left by the loop
    return f"{value / scale:.5g} {prefix}{unit}"
