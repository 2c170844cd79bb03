"""Sellmeier dispersion forms and the crystal database.

Wavelengths passed to the evaluation routines are in nanometres; the
Sellmeier coefficients themselves follow the micrometre convention of the
handbook fits they were taken from.
"""

from __future__ import annotations

import configparser
import functools
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigError, DispersionRangeError

# formula_id -> (n(c, lam_um), dn/dlambda(c, lam_um) per micrometre, number of coefficients)
_FORMULAS = {}


def _formula(formula_id, n_coeff, slope):
    def register(fn):
        _FORMULAS[formula_id] = (fn, slope, n_coeff)
        return fn
    return register


def _sellmeier_2pole_slope(c, lam_um):
    l2 = lam_um ** 2
    _, b, cc, d, e = c
    return lam_um * (-b / (l2 - cc) ** 2 - d * e / (l2 - e) ** 2) / _sellmeier_2pole(c, lam_um)


@_formula("sellmeier_2pole", 5, _sellmeier_2pole_slope)
def _sellmeier_2pole(c, lam_um):
    l2 = lam_um ** 2
    a, b, cc, d, e = c
    return np.sqrt(a + b / (l2 - cc) + d * l2 / (l2 - e))


def _sellmeier_pole_quadratic_slope(c, lam_um):
    _, b, cc, d = c
    return lam_um * (d - b / (lam_um ** 2 - cc) ** 2) / _sellmeier_pole_quadratic(c, lam_um)


@_formula("sellmeier_pole_quadratic", 4, _sellmeier_pole_quadratic_slope)
def _sellmeier_pole_quadratic(c, lam_um):
    l2 = lam_um ** 2
    a, b, cc, d = c
    return np.sqrt(a + b / (l2 - cc) + d * l2)


@_formula("constant", 1, lambda c, lam_um: 0.0 * lam_um)
def _constant(c, lam_um):
    return c[0] * np.ones_like(lam_um) if np.ndim(lam_um) else c[0]


@_formula("cauchy2", 2, lambda c, lam_um: -2.0 * c[1] / lam_um ** 3)
def _cauchy2(c, lam_um):
    return c[0] + c[1] / lam_um ** 2


@dataclass(frozen=True)
class SellmeierForm:
    """One principal-index dispersion curve with its validity window."""

    formula_id: str
    coefficients: tuple
    valid_um_min: float
    valid_um_max: float

    def __post_init__(self):
        if self.formula_id not in _FORMULAS:
            raise ConfigError(
                f"unknown formula_id {self.formula_id!r}; "
                f"supported: {sorted(_FORMULAS)}"
            )
        n_coeff = _FORMULAS[self.formula_id][2]
        if len(self.coefficients) != n_coeff:
            raise ConfigError(
                f"formula {self.formula_id!r} takes {n_coeff} coefficients, "
                f"got {len(self.coefficients)}"
            )
        if not 0 < self.valid_um_min < self.valid_um_max:
            raise ConfigError("invalid validity range")

    def _evaluate(self, fn, wavelength_nm, crystal_name):
        lam_um = np.asarray(wavelength_nm) * 1e-3
        if np.min(lam_um) < self.valid_um_min or np.max(lam_um) > self.valid_um_max:
            outside = (lam_um < self.valid_um_min) | (lam_um > self.valid_um_max)
            bad = np.ravel(lam_um)[np.argmax(outside)]
            raise DispersionRangeError(
                f"{float(bad) * 1e3:.6g} nm is outside the validity range "
                f"[{self.valid_um_min * 1e3:.6g}, {self.valid_um_max * 1e3:.6g}] nm "
                f"of crystal {crystal_name}"
            )
        value = fn(self.coefficients, lam_um)
        return float(value) if np.ndim(value) == 0 else value

    def index(self, wavelength_nm, crystal_name="?"):
        """Refractive index at the given wavelength (nm; scalar or array); a
        DispersionRangeError names the first one where it is not positive and finite."""
        n = self._evaluate(_FORMULAS[self.formula_id][0], wavelength_nm, crystal_name)
        lo, hi = (n, n) if isinstance(n, float) else (np.min(n), np.max(n))
        if 0 < lo and hi < math.inf:
            return n
        bad = int(np.argmin((n > 0) & (n < math.inf)))
        raise DispersionRangeError(
            f"refractive index {np.ravel(n)[bad]:.6g} at {np.ravel(wavelength_nm)[bad]:.6g} nm "
            f"is not positive and finite for crystal {crystal_name}")

    def slope(self, wavelength_nm, crystal_name="?"):
        """Analytic dn/dlambda per nanometre at the given wavelength (nm)."""
        return 1e-3 * self._evaluate(_FORMULAS[self.formula_id][1], wavelength_nm, crystal_name)


@dataclass(frozen=True)
class CrystalSpec:
    """Uniaxial crystal: both principal indices, length, and cut angle.

    The database stores only the dispersion data; length (mm) and cut
    angle (degrees from the optic axis) are per-setup and supplied when a
    crystal is instantiated. cut_angle may be None when the angle is to
    be solved from phasematching.
    """

    name: str
    sellmeier_o: SellmeierForm
    sellmeier_e: SellmeierForm
    length_mm: float
    cut_angle_deg: float | None = None
    source_citation: str = ""

    def __post_init__(self):
        if not 0 < self.length_mm < np.inf:
            raise ConfigError(f"crystal length must be positive and finite, got {self.length_mm}")
        if self.cut_angle_deg is not None and not 0 <= self.cut_angle_deg <= 90:
            raise ConfigError(
                f"cut angle must lie in [0, 90] degrees, got {self.cut_angle_deg}"
            )


_DB_KEYS = (
    "formula_id",
    "coefficients_o",
    "coefficients_e",
    "valid_um_min",
    "valid_um_max",
    "source_citation",
)


def read_ini(path, text=None):
    """The INI file at path (or text read from it), parsed as every input file
    is: `%` is literal, `#` starts a comment, key names fold to lower case,
    and a duplicated section or key, a [DEFAULT] section or an unreadable
    file is a ConfigError naming path."""
    # No header can name the section "\n", so [DEFAULT] is an ordinary one.
    parser = configparser.ConfigParser(inline_comment_prefixes=("#",), interpolation=None,
                                       default_section="\n")
    try:
        if text is None:
            with open(path, encoding="utf-8") as fh:
                text = fh.read()
        parser.read_string(text, source=str(path))
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from exc
    except configparser.Error as exc:  # its message names the file and the line
        raise ConfigError(str(exc)) from exc
    if "DEFAULT" in parser.sections():
        raise ConfigError(f"{path}: a [DEFAULT] section is not allowed")
    return parser


def _check_fields(label, fields):
    wrong = sorted(set(fields) ^ set(_DB_KEYS))
    if wrong:
        raise ConfigError(f"{label}: missing or unknown fields: {', '.join(wrong)}")


def crystal_from_record(name, fields, length_mm, cut_angle_deg=None):
    """CrystalSpec from the string fields of a crystal-file section or an
    inline [crystal] section: every key of _DB_KEYS, and no other."""
    _check_fields(f"crystal {name!r}", fields)
    try:
        vmin = float(fields["valid_um_min"])
        vmax = float(fields["valid_um_max"])
        co = tuple(float(x) for x in fields["coefficients_o"].split(","))
        ce = tuple(float(x) for x in fields["coefficients_e"].split(","))
    except ValueError as exc:
        raise ConfigError(f"crystal {name!r}: {exc}") from exc
    return CrystalSpec(
        name=name,
        sellmeier_o=SellmeierForm(fields["formula_id"], co, vmin, vmax),
        sellmeier_e=SellmeierForm(fields["formula_id"], ce, vmin, vmax),
        length_mm=length_mm,
        cut_angle_deg=cut_angle_deg,
        source_citation=fields["source_citation"],
    )


class CrystalDatabase:
    """Immutable lookup of named dispersion records, one INI section each,
    read from text or, when text is None, from the file at source."""

    def __init__(self, text, source="<crystal text>"):
        parser = read_ini(source, text)
        self._records = {name: dict(parser[name]) for name in parser.sections()}
        for name, fields in self._records.items():
            _check_fields(f"{source}: crystal {name!r}", fields)

    @classmethod
    def from_file(cls, path):
        return cls(None, path)

    def names(self):
        return sorted(self._records)

    def crystal(self, name, length_mm, cut_angle_deg=None):
        """Instantiate a CrystalSpec for a named record."""
        if name not in self._records:
            raise ConfigError(
                f"unknown crystal {name!r}; available: {', '.join(self.names())}"
            )
        return crystal_from_record(name, self._records[name], length_mm, cut_angle_deg)


@functools.cache
def builtin_database():
    """The database shipped with the package (loaded once, immutable)."""
    return CrystalDatabase.from_file(Path(__file__).with_name("data") / "crystals.txt")


def get_crystal(name, length_mm, cut_angle_deg=None):
    return builtin_database().crystal(name, length_mm, cut_angle_deg)
