"""Unit constants and conversions.

Internally the package works in micrometres for lengths and pascals for
pressures and moduli.  With radii and thicknesses in um and P, E in Pa the
group a**2 * P / (E * t) comes out directly in um, so deflections never need
converting.
"""

from __future__ import annotations

from functools import partial

from .errors import number

ATM_PA = 101325.0
"""Standard atmosphere in pascals."""

# The atm_pa row of the study config's schema, which ``--atm-pa`` shares.
ATM_PA_ROW = ("atm_pa", partial(number, positive=True), ATM_PA)

GPA_PA = 1.0e9
"""Pascals per gigapascal."""


def atm_to_pa(p_atm: float, atm_pa: float = ATM_PA) -> float:
    """Convert a pressure in atmospheres to pascals.

    ``atm_pa`` overrides the atmosphere definition (some tools round it to
    1.0e5 Pa); the default is the standard 101325 Pa.
    """
    return p_atm * atm_pa
