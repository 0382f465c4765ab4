import pytest

import globtop as gt

# Reference screening study data: the 9-run simulated and calculated
# deflection columns and the error column as printed in the source tables,
# in plan run order.
SIMULATED_UM = (12.59, 4.95, 18.94, 2.60, 33.18, 2.93, 1.70, 5.39, 1.16)
CALCULATED_UM = (15.58, 3.11, 17.53, 3.12, 20.78, 5.85, 1.54, 4.88, 1.38)
PRINTED_ERROR_PCT = (23.79, -37.25, -7.42, 20.07, -37.38, 99.78, 9.44, 9.44, 19.69)
# Runs (1-based) whose printed error has the wrong sign.  Both print +9.44 %,
# but their calculated deflection is below the simulated one, so the error
# (calculated / simulated - 1) * 100 is negative:
#   run 7: (1.54 / 1.70 - 1) * 100 = -9.41 %, and -9.97 % to -8.85 % over
#          inputs within +-0.005 um, which holds -9.44 but not +9.44;
#   run 8: (4.88 / 5.39 - 1) * 100 = -9.46 %, and -9.64 % to -9.29 % over
#          inputs within +-0.005 um, which holds -9.44 but not +9.44.
PRINTED_SIGN_ERRATA = (7, 8)

# Script prelude that makes every symbol lookup through a ctypes.CDLL fail,
# as on a numpy whose LAPACK does not export the banded Cholesky routines.
HIDE_NUMPY_LAPACK = """
import ctypes
class _NoSymbols(ctypes.CDLL):
    def __getattr__(self, name):
        raise AttributeError(name)
ctypes.CDLL = _NoSymbols
"""

# Realized plan rows in run order: material, thickness um, pressure atm.
PLAN_ROWS = (
    ("Polyimide", 250.0, 100.0),
    ("Carbon epoxy resin", 150.0, 100.0),
    ("Polyimide", 200.0, 90.0),
    ("Parylene C", 250.0, 80.0),
    ("Polyimide", 150.0, 80.0),
    ("Parylene C", 150.0, 90.0),
    ("Carbon epoxy resin", 200.0, 80.0),
    ("Parylene C", 200.0, 100.0),
    ("Carbon epoxy resin", 250.0, 90.0),
)


def replaced(record, **changes):
    """``record`` built again through its constructor, with ``changes`` applied."""
    return type(record)(**{**{name: getattr(record, name) for name in record._fields}, **changes})


@pytest.fixture(scope="session")
def library():
    return gt.default_library()


@pytest.fixture(scope="session")
def polyimide(library):
    return library.get("Polyimide")


@pytest.fixture(scope="session")
def parylene(library):
    return library.get("Parylene C")


@pytest.fixture(scope="session")
def cer(library):
    return library.get("Carbon epoxy resin")


@pytest.fixture(scope="session")
def reference_cap():
    return gt.REFERENCE_GEOMETRY


@pytest.fixture(scope="session")
def exact_cap():
    return gt.solve_cap(1200.0, 250.0)


@pytest.fixture(scope="session")
def plan(library):
    return gt.default_plan(library)


@pytest.fixture(scope="session")
def external_results(plan):
    return gt.realize_responses(plan, SIMULATED_UM, source="external")


@pytest.fixture(scope="session")
def external_fit(external_results):
    return gt.fit_screening_model(external_results)
