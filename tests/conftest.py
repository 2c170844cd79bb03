import inspect
import sys

import numpy as np
import pytest

from pairspec.crystals import CrystalSpec, SellmeierForm, get_crystal
from pairspec.interference import SourceSpec
from pairspec.jsa import PumpSpec


@pytest.fixture(scope="session")
def kdp():
    return get_crystal("KDP", 5.0)


@pytest.fixture(scope="session")
def bbo():
    return get_crystal("BBO", 2.0)


@pytest.fixture(scope="session")
def zerobiref():
    return get_crystal("ZEROBIREF", 5.0)


@pytest.fixture(scope="session")
def kdp_source(kdp):
    return SourceSpec(crystal=kdp, pump=PumpSpec(415.0, 4.0), flat_phase=True)


@pytest.fixture(scope="session")
def bbo_source(bbo):
    return SourceSpec(crystal=bbo, pump=PumpSpec(400.0, 4.0), flat_phase=True)


@pytest.fixture(scope="session")
def kdp_jsa(kdp_source):
    return kdp_source.build_jsa()


@pytest.fixture(scope="session")
def bbo_jsa(bbo_source):
    return bbo_source.build_jsa()


def constant_crystal(n_o=1.5, n_e=1.7, length_mm=5.0, cut_angle_deg=None):
    """Dispersionless test crystal with independent principal indices."""
    form = lambda n: SellmeierForm("constant", (n,), 0.2, 2.0)
    return CrystalSpec(
        name=f"CONST({n_o},{n_e})",
        sellmeier_o=form(n_o),
        sellmeier_e=form(n_e),
        length_mm=length_mm,
        cut_angle_deg=cut_angle_deg,
    )


def cauchy_crystal(a_o=1.5, b_o=0.02, a_e=1.6, b_e=0.03, length_mm=5.0):
    """Test crystal with n(lambda) = A + B / lambda^2 (lambda in um)."""
    return CrystalSpec(
        name="CAUCHY",
        sellmeier_o=SellmeierForm("cauchy2", (a_o, b_o), 0.2, 2.0),
        sellmeier_e=SellmeierForm("cauchy2", (a_e, b_e), 0.2, 2.0),
        length_mm=length_mm,
    )


def assert_same_bits(actual, expected):
    """Equal dtype, shape and bytes: stricter than assert_array_equal,
    which counts 0.0 and -0.0, or two NaNs, as equal."""
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert (actual.dtype, actual.shape) == (expected.dtype, expected.shape)
    assert actual.tobytes() == expected.tobytes()


def purity(rho):
    """Tr rho^2 of a heralded state with the grid measure: the independent
    reference for the package's one purity formula,
    `SchmidtResult.filtered_purity`."""
    return float(np.sum(np.abs(rho.values) ** 2) * rho.grid.d_omega ** 2)


def trace(rho):
    """Tr rho of a heralded state with the grid measure."""
    return float(np.real(np.trace(rho.values)) * rho.grid.d_omega)


def assert_lattice(axis):
    """Whole rad/s on one whole step."""
    step = axis[1] - axis[0]
    assert step > 0 and float(step).is_integer() and float(axis[0]).is_integer()
    np.testing.assert_array_equal(axis, axis[0] + step * np.arange(axis.size))


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def count_calls(monkeypatch, qualnames):
    """Count the calls to package functions named "layer.name" or
    "layer.Class.method". A function is wrapped at every module that binds
    it, since the package imports with `from .x import y`. Returns the
    live {qualname: count} dict."""
    modules = [module for name, module in sys.modules.items()
               if name == "pairspec" or name.startswith("pairspec.")]
    calls = dict.fromkeys(qualnames, 0)
    for qualname in qualnames:
        layer, _, attr = qualname.partition(".")
        owner = sys.modules[f"pairspec.{layer}"]
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = getattr(owner, name)

        def counted(*args, _fn=original, _key=qualname, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        if path:
            # A classmethod reads back bound to its class, so it goes back
            # as a staticmethod of the bound original.
            bound = isinstance(inspect.getattr_static(owner, name), classmethod)
            monkeypatch.setattr(owner, name, staticmethod(counted) if bound else counted)
            continue
        for module in modules:
            if getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return calls
