"""Joint spectral amplitude construction, filtering, and marginals.

The two-photon amplitude on a square frequency grid is the product
of a Gaussian pump envelope evaluated at the daughter-frequency sum and
the sinc-shaped phasematching response of the crystal, L2-normalized
with the grid measure. All internal math is in angular frequency;
wavelengths appear only at construction and export boundaries.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass

import numpy as np

from .crystals import CrystalSpec
from .dispersion import TWO_PI_C, _on_sums, delta_k, group_index, nm_from_omega, row_blocks
from .errors import ConfigError, FilterSupportError, NumericalError

FWHM_PER_SIGMA = 2.0 * math.sqrt(2.0 * math.log(2.0))  # a Gaussian's FWHM over its sigma
MIN_GRID_POINTS = 16

NORM_CONVENTION = "unit-L2-with-grid-measure"

FILTER_SHAPES = ("gaussian", "rectangular")
NO_SUPPORT = "filter removes all support of the joint amplitude"


def other_arm(arm, what="arm"):
    """The partner of photon arm 'e' or 'o'; a ConfigError naming `what`
    for any other value."""
    if arm not in ("e", "o"):
        raise ConfigError(f"{what} must be 'e' or 'o', got {arm!r}")
    return "o" if arm == "e" else "e"


@dataclass(frozen=True)
class PumpSpec:
    """Gaussian pump pulse spectrum with flat spectral phase.

    fwhm_nm is the FWHM of the pump *intensity* spectrum in wavelength.
    """

    center_nm: float
    fwhm_nm: float

    def __post_init__(self):
        if not (0 < self.center_nm < math.inf and 0 < self.fwhm_nm < math.inf):
            raise ConfigError("pump center and FWHM must be positive and finite")

    @property
    def omega_p(self):
        return TWO_PI_C / (self.center_nm * 1e-9)

    @property
    def sigma_omega(self):
        """Standard deviation of the intensity spectrum in rad/s."""
        d_omega = TWO_PI_C * self.fwhm_nm * 1e-9 / (self.center_nm * 1e-9) ** 2
        return d_omega / FWHM_PER_SIGMA


def pump_envelope(pump: PumpSpec, omega_sum):
    """Pump amplitude at the daughter-frequency sum, peak value 1."""
    s = pump.sigma_omega
    return np.exp(-((np.asarray(omega_sum) - pump.omega_p) ** 2) / (4.0 * s ** 2))


def phasematching_function(crystal: CrystalSpec, theta_deg, omega_e, omega_o,
                           flat_phase=False):
    """sinc(dk L / 2) * exp(i dk L / 2); the phase factor is dropped in
    flat-phase mode, which leaves a real amplitude.

    The result is the one full-size array: `delta_k` writes into it (into
    its real part when the phase is kept), and the sinc runs over row
    blocks of it with temporaries of one block.
    """
    out = np.empty(np.broadcast_shapes(np.shape(omega_e), np.shape(omega_o)),
                   dtype=float if flat_phase else complex)
    delta_k(crystal, theta_deg, omega_e, omega_o, out=out.real)
    blocks = np.atleast_1d(out)  # a view, so a 0-d result is one block of one row
    for rows in row_blocks(len(blocks)):
        _phasematch_block(blocks[rows], crystal.length_mm * 1e-3)
    return out if out.ndim else out[()]


def _phasematch_block(block, length):
    """Overwrite a block of dk values (the real part of a complex block)
    with sinc(x) exp(i x), or sinc(x) for a real block, x = dk length / 2.
    Its temporaries are a block's and die with the call."""
    kept_phase = np.iscomplexobj(block)
    x = block.real.copy() if kept_phase else block
    x *= length
    x /= 2.0
    if kept_phase:
        phase = 1j * x
        np.exp(phase, out=phase)
    x[x == 0.0] = np.finfo(float).eps
    amp = np.sin(x)
    if kept_phase:
        amp /= x
        np.multiply(phase, amp, out=block)
    else:
        np.divide(amp, x, out=block)


@dataclass(frozen=True)
class FrequencyGrid:
    """One uniform ascending frequency axis shared by both daughter photons:
    omega_o must equal omega_e, and both names hold the same array."""

    omega_e: np.ndarray
    omega_o: np.ndarray

    def __post_init__(self):
        ax = np.asarray(self.omega_e, dtype=float)
        if ax.ndim != 1 or ax.size < MIN_GRID_POINTS:
            raise ConfigError(f"need a 1-d frequency axis with >= {MIN_GRID_POINTS} points")
        steps = np.diff(ax)
        if steps[0] <= 0 or not np.allclose(steps, steps[0], rtol=1e-9):
            raise ConfigError("frequency axis must be uniform and ascending")
        if not np.array_equal(np.asarray(self.omega_o, dtype=float), ax):
            raise ConfigError("omega_o must equal omega_e: both photons share one axis")
        object.__setattr__(self, "omega_e", ax)
        object.__setattr__(self, "omega_o", ax)

    @property
    def d_omega(self):
        return float(self.omega_e[1] - self.omega_e[0])

    @property
    def measure(self):
        return self.d_omega ** 2


@dataclass(frozen=True)
class JointAmplitude:
    """Two-photon amplitude, unit L2 norm with grid measure; float64 if flat-phase."""

    grid: FrequencyGrid
    values: np.ndarray  # indexed [e, o]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex if np.iscomplexobj(self.values) else float)
        if v.shape != (self.grid.omega_e.size,) * 2:
            raise ConfigError("values shape does not match the grid")
        if not np.all(np.isfinite(v)):
            raise NumericalError("joint amplitude contains non-finite values")
        object.__setattr__(self, "values", v)

    @property
    def flat_phase(self):
        return not np.iscomplexobj(self.values)

    @functools.cached_property
    def intensity(self):
        """|f|^2, computed once per amplitude and read-only."""
        intensity = _abs_sq(self.values)
        intensity.flags.writeable = False
        return intensity

    def norm_sq(self):
        return float(_sum_abs_sq(self.values) * self.grid.measure)


def _abs_sq(values, out=None):
    """|v|^2, into `out` if given: np.square for real values (the same bits,
    one temporary fewer), squared in the array of |v| for complex ones."""
    if np.iscomplexobj(values):
        values = out = np.abs(values, out=out)
    return np.square(values, out=out)


def _sum_abs_sq(values):
    """sum |v|^2 of an array as one BLAS dot of its memory, real or complex,
    with no full-size square. Its last bits follow the BLAS build and its
    thread count."""
    flat = values.ravel(order="K")
    return np.vdot(flat, flat).real


def normalize(grid: FrequencyGrid, values):
    """Wrap raw amplitudes, left as they are, into a unit-norm JointAmplitude."""
    return _normalized(grid, np.array(values, dtype=complex if np.iscomplexobj(values) else float))


def _normalized(grid: FrequencyGrid, values):
    """A unit-norm JointAmplitude in `values`' own buffer, divided in place."""
    norm_sq = _sum_abs_sq(values) * grid.measure
    if not np.isfinite(norm_sq) or norm_sq == 0.0:
        raise NumericalError("cannot normalize: joint amplitude has zero norm")
    values /= math.sqrt(norm_sq)
    return JointAmplitude(grid, values)


def lattice_axis(lo, hi, n):
    """n points from round(lo) on a whole-rad/s step close to (hi - lo) / (n - 1).

    Every point, and every sum of two points of such axes below 2**53
    rad/s, is an exact float64 integer, so a grid of them has only
    n + m - 1 distinct sums omega_e + omega_o. The last point is within
    n / 2 rad/s of hi.
    """
    step = float(round((hi - lo) / (n - 1)))
    if step <= 0:
        raise ConfigError(
            f"frequency window [{lo:.9g}, {hi:.9g}] rad/s at {n} points gives a "
            f"step of {step:g} rad/s; it must be at least 1 rad/s"
        )
    return float(round(lo)) + step * np.arange(n)


def check_grid(n_points, span_sigmas):
    """ConfigError unless build_grid accepts these grid settings."""
    if n_points < MIN_GRID_POINTS:
        raise ConfigError(f"n_points must be at least {MIN_GRID_POINTS}, got {n_points}")
    if not 0 < span_sigmas < math.inf:
        raise ConfigError(f"span_sigmas must be positive and finite, got {span_sigmas:g}")


def build_grid(crystal: CrystalSpec, pump: PumpSpec, n_points=512,
               span_sigmas=4.0, *, theta_deg):
    """Square grid centered on the degenerate frequency omega_p / 2, for a
    crystal cut at theta_deg.

    The half-width is span_sigmas times a combined width estimate: the
    geometric mean of the pump's spectral sigma and the phasematching
    bandwidth 2*pi*c / (L * |group-index mismatch|), taken for the larger
    of the pump-e and pump-o mismatches. The geometric mean keeps the
    window tight enough that far sinc sidelobes do not dominate while
    still covering the broad (pump-limited) marginal.
    """
    check_grid(n_points, span_sigmas)
    daughter_nm = 2.0 * pump.center_nm
    ng_p = group_index(crystal, "e", pump.center_nm, theta_deg)
    ng_e = group_index(crystal, "e", daughter_nm, theta_deg)
    ng_o = group_index(crystal, "o", daughter_nm)
    mismatch = max(abs(ng_p - ng_e), abs(ng_p - ng_o))
    length = crystal.length_mm * 1e-3
    if mismatch < 1e-12 or pump.sigma_omega <= 0:
        raise ConfigError("degenerate width estimate: cannot size the grid")
    sigma_pm = TWO_PI_C / (length * mismatch)
    sigma_est = math.sqrt(pump.sigma_omega * sigma_pm)
    omega0 = pump.omega_p / 2.0
    half = span_sigmas * sigma_est
    axis = lattice_axis(omega0 - half, omega0 + half, n_points)
    return FrequencyGrid(omega_e=axis, omega_o=axis)


def joint_amplitude(crystal: CrystalSpec, theta_deg, pump: PumpSpec,
                    grid: FrequencyGrid, flat_phase=False):
    """f = pump envelope times phasematching function, unit-normalized, all
    in phi's one n x n array."""
    we = grid.omega_e[:, None]
    wo = grid.omega_o[None, :]
    alpha = _on_sums(lambda omega_sum: pump_envelope(pump, omega_sum), we, wo)
    phi = phasematching_function(crystal, theta_deg, we, wo, flat_phase=flat_phase)
    phi *= alpha
    return _normalized(grid, phi)


@dataclass(frozen=True)
class FilterSpec:
    """Spectral intensity filter on one arm."""

    shape: str  # one of FILTER_SHAPES
    arm: str  # e | o
    center_nm: float
    fwhm_nm: float

    def __post_init__(self):
        if self.shape not in FILTER_SHAPES:
            raise ConfigError(f"unknown filter shape {self.shape!r}")
        other_arm(self.arm, "filter arm")
        if not (self.fwhm_nm > 0 and self.center_nm > 0):
            raise ConfigError("filter center and FWHM must be positive")


def filter_transmission(filt: FilterSpec, omega):
    """Intensity transmission of a filter sampled on a frequency axis."""
    lam = nm_from_omega(omega)
    if filt.shape == "gaussian":
        s = filt.fwhm_nm / FWHM_PER_SIGMA
        return np.exp(-((lam - filt.center_nm) ** 2) / (2.0 * s ** 2))
    return (np.abs(lam - filt.center_nm) <= filt.fwhm_nm / 2.0).astype(float)


def arm_transmissions(filters, omega):
    """Intensity transmission of each arm, {"e": T_e, "o": T_o}: the product
    of that arm's filters, or ones where the arm has none."""
    t = {"e": np.ones_like(omega), "o": np.ones_like(omega)}
    for filt in filters:
        t[filt.arm] = t[filt.arm] * filter_transmission(filt, omega)
    return t


def apply_filters(jsa: JointAmplitude, filters, *, _in_place=False):
    """Multiply by the amplitude transmission sqrt(T) per arm and renormalize.

    Returns (filtered JointAmplitude, passed fraction), where the passed
    fraction is the intensity surviving the filters before renormalization.
    An empty list returns the amplitude itself and 1.0. _in_place filters
    jsa's own array, which the caller gives up.
    """
    if not filters:
        return jsa, 1.0
    t = arm_transmissions(filters, jsa.grid.omega_e)
    norm_sq = jsa.norm_sq()
    values = np.multiply(jsa.values, np.sqrt(t["e"])[:, None],
                         out=jsa.values if _in_place else None)
    values *= np.sqrt(t["o"])[None, :]
    kept = float(_sum_abs_sq(values) * jsa.grid.measure)
    if kept == 0.0:
        raise FilterSupportError(NO_SUPPORT)
    values /= math.sqrt(kept)
    return JointAmplitude(jsa.grid, values), kept / norm_sq


def marginal_spectrum(jsa: JointAmplitude, arm):
    """Single-arm intensity spectrum, peak-normalized.

    Returns (wavelength_nm ascending, intensity). The frequency marginal
    is relabeled in wavelength; no Jacobian is applied since the output
    is a peak-normalized shape on the sampled points.
    """
    other_arm(arm)
    intensity = np.sum(jsa.intensity, axis=1 if arm == "e" else 0) * jsa.grid.d_omega
    lam = nm_from_omega(jsa.grid.omega_e)
    order = np.argsort(lam)
    intensity = intensity[order]
    return lam[order], intensity / np.max(intensity)


def jsi_pearson(jsa: JointAmplitude):
    """Pearson correlation of the two frequencies under the JSI density. The
    covariance is (w - mu_e) @ JSI @ (w - mu_o) / sum(JSI), so no n x n
    array is formed beside the JSI."""
    intensity = jsa.intensity
    total = float(np.sum(intensity))
    p_e = intensity.sum(axis=1) / total
    p_o = intensity.sum(axis=0) / total
    w = jsa.grid.omega_e
    mu_e = float(p_e @ w)
    mu_o = float(p_o @ w)
    var_e = float(p_e @ (w - mu_e) ** 2)
    var_o = float(p_o @ (w - mu_o) ** 2)
    cov = float((w - mu_e) @ intensity @ (w - mu_o)) / total
    return cov / math.sqrt(var_e * var_o)


def export_jsi_csv(jsa: JointAmplitude, path):
    """Write the JSI matrix row-major with each arm's axis in nm and rad/s."""
    axis = jsa.grid.omega_e
    nm, rad_s = csv_cells(nm_from_omega(axis)), csv_cells(axis)
    write_csv(path, jsa.intensity, comments=[f"axis_e_nm,{nm}", f"axis_e_rad_s,{rad_s}",
                                             f"axis_o_nm,{nm}", f"axis_o_rad_s,{rad_s}"])


def export_metadata(path, source, jsa: JointAmplitude, *, extra=None):
    """Companion metadata: everything needed to reproduce the matrix of a
    `SourceSpec`, with its theta recorded as the crystal's cut angle."""
    crystal, pump = source.crystal, source.pump
    axis = jsa.grid.omega_e
    meta = {
        "crystal": {
            "name": crystal.name,
            "length_mm": crystal.length_mm,
            "cut_angle_deg": source.theta,
            "source_citation": crystal.source_citation,
        },
        "pump": {
            "center_nm": pump.center_nm,
            "fwhm_nm": pump.fwhm_nm,
        },
        "grid": {
            "n_e": axis.size,
            "n_o": axis.size,
            "omega_e_min": float(axis[0]),
            "omega_e_max": float(axis[-1]),
            "omega_o_min": float(axis[0]),
            "omega_o_max": float(axis[-1]),
        },
        "filters": [
            {"shape": f.shape, "arm": f.arm, "center_nm": f.center_nm, "fwhm_nm": f.fwhm_nm}
            for f in source.filters
        ],
        "flat_phase": jsa.flat_phase,
        "norm_convention": NORM_CONVENTION,
        "out_of_model": {
            "absolute_pair_rate": "not simulated",
            "detector_and_collection_efficiency": "not simulated; reported efficiencies are filter-limited",
        },
    }
    if extra:
        meta.update(extra)
    write_json(path, meta)


CSV_BLOCK_CELLS = 1 << 13  # cells per formatted block: its temporaries stay under 2 MB
# The four ASCII digits of each of 0 .. 9999, one little-endian uint32 each.
_DIGITS4 = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"),
                    -1).view("<u4").ravel()
_POW10 = 10.0 ** np.arange(-300, 308)  # _POW10[300 + k] = 10**k
# The %d slots: a sign, 20 digits, the end. Their masks, by 20 sign + digits - 1:
_INT_KEEP = ((np.arange(24) >= 20 - np.arange(40)[:, None] % 20) & (np.arange(24) < 22)
             | (np.arange(24) == 0) & (np.arange(40)[:, None] >= 20)).view(np.uint64)
# The word cells' tables are built as bytes: numpy's ufuncs would page in about
# 0.25 MB of numpy's code at import, which every run would carry.
# A %d cell of 0 .. 9999 is one uint64 word: its four digits, the end and NULs.
# _WIDTH4 holds each of 0 .. 9999's width - 1, and _INT_WORD_MASKS, by that, the
# bytes of the word the width keeps: its last 1 .. 4 digits and the end.
_WIDTH4 = np.frombuffer(bytes(10) + b"\1" * 90 + b"\2" * 900 + b"\3" * 9000, np.uint8)
_INT_WORD_MASKS = np.frombuffer(bytes(255 if 3 - w <= i <= 4 else 0
                                      for w in range(4) for i in range(8)), "<u8")
# The trailing zeros of each of 0 .. 9999 written with four digits (4 for 0).
_TZ4 = bytearray(10000)
for _zeros in range(1, 5):
    _TZ4[::10 ** _zeros] = bytes([_zeros]) * (10000 // 10 ** _zeros)
_TZ4 = np.frombuffer(_TZ4, np.uint8)
# A word cell's 16 slots, "-1.23456789e+12" and the end, are two little-endian
# uint64 words. "e+12" is bytes 3 .. 6 of the second word, by exponent -99 .. 99:
_EXP_WORDS = np.frombuffer(b"".join(b"\0\0\0e%+03d\0" % k for k in range(-99, 100)), "<u8")
# The words' byte masks by the trailing zeros z of the 8 fraction digits (slots
# 3 .. 10), which they drop, with the point (slot 2) when all 8 are zeros.
_WORD_MASKS = np.frombuffer(bytes(0 if 10 - z < i < 11 or i == 2 and z == 8 else 255
                                  for z in range(9) for i in range(16)), "<u8").reshape(9, 2)


def write_csv(path, table, comments=(), header=None, fmt="%.9g"):
    """Write a CSV table the one way every table is: a `# ` line per comment, the
    header if any, then the rows in blocks of CSV_BLOCK_CELLS cells, each cell the
    bytes of Python's `fmt % cell` (see `_cell_slots`). `table` is a 2-d array in
    one fmt, or for a tuple of fmts a sequence of 1-d columns."""
    groups = ([(np.asarray(table), fmt)] if isinstance(fmt, str) else
              [(np.asarray(column)[:, None], f) for column, f in zip(table, fmt, strict=True)])
    with open(path, "wb") as fh:
        head = [f"# {comment}\n" for comment in comments] + [f"{header}\n"] * (header is not None)
        fh.write("".join(head).encode())
        fh.writelines(_blocks(groups))


def csv_cells(values, fmt="%.9g"):
    """The cells of a 1-d array joined by commas, as write_csv writes a row."""
    return b"".join(_blocks([(np.asarray(values)[None, :], fmt)])).decode()[:-1]


def _blocks(groups):
    """The bytes of the rows of (2-d values, fmt) groups of columns, in blocks of
    at most CSV_BLOCK_CELLS cells: whole rows, or for a row of one group longer
    than that, chunks of its cells, of which only the last ends the line. Rows
    of no cells are empty lines, and no groups are no rows."""
    width = sum(values.shape[1] for values, _ in groups)
    if width == 0:
        yield b"\n" * (len(groups[0][0]) if groups else 0)
        return
    if width <= CSV_BLOCK_CELLS or len(groups) > 1:
        step = max(1, CSV_BLOCK_CELLS // width)
        for start in range(0, len(groups[0][0]), step):
            yield _format_rows([(values[start:start + step], f) for values, f in groups])
        return
    (values, fmt), = groups
    for row in values:
        for start in range(0, width, CSV_BLOCK_CELLS):
            stop = start + CSV_BLOCK_CELLS
            yield _format_rows([(row[None, start:stop], fmt)], 10 if stop >= width else 44)


def _format_rows(groups, end=10):
    """Rows, given as (2-d values, fmt) groups of columns, as the bytes of `fmt %
    cell` per cell: each cell's slots (`_cell_slots`), laid side by side, with
    their NULs deleted. Each row ends with `end`, a newline or a comma."""
    slots = []
    for i, (values, fmt) in enumerate(groups):
        ends = np.full(values.shape, 44, np.uint8)  # a comma, or `end` after a row
        ends[:, -1] = end if i == len(groups) - 1 else 44
        slots.append(_cell_slots(values.ravel(), fmt, ends.ravel()).reshape(len(values), -1))
    return (np.hstack(slots) if len(slots) > 1 else slots[0]).tobytes().translate(None, b"\0")


def _ascii(m, count):
    """The text of `count` base-10000 digits of a nonnegative integer array."""
    chunks = np.empty((m.size, count), m.dtype)
    for j in range(count - 1, 0, -1):
        m, chunks[:, j] = m // 10000, m % 10000
    chunks[:, 0] = m
    return _DIGITS4.take(chunks).view(np.uint8)


def _cell_slots(x, fmt, ends):
    """Each cell's text in a row of byte slots (whole 8-byte words), ended by
    `ends`, with NUL in the slots it leaves out. %d cells are built from the
    integer: as one word each (`_small_int_slots`) when a block is int64 cells
    all in 0 .. 9999, else in 24 slots of a sign, 20 digits and the end. %.Pg
    cells are built from the P-digit rounded mantissa: as two words each
    (`_word_slots`) when P <= 9 and all of a block's cells are in e-notation
    with a 2-digit exponent, else in the layout of every %g form
    (`_float_layout`). Cells near a tie or a power of ten go through `%` either
    way; zero, non-finite, tiny and huge ones, which only the layout takes, too."""
    if fmt == "%d":
        if not np.issubdtype(x.dtype, np.integer):
            raise ValueError(f"%d cells must be integers, got {x.dtype}")
        if x.dtype == np.int64 and x.size and x.view(np.uint64).max() <= 9999:
            # As uint64 a negative cell reads past 2**63.
            return _small_int_slots(x.view(np.uint64), ends)
        if x.dtype == np.uint64:  # above 2**63 - 1, int64 would read it as negative
            u, negative = x, np.zeros(x.shape, bool)
        else:
            x = x.astype(np.int64)
            u, negative = np.abs(x).view(np.uint64), x < 0  # exact at the int64 minimum
        slots = np.empty((x.size, 24), np.uint8)
        slots[:, 0], slots[:, 1:21], slots[:, 21] = 45, _ascii(u, 5), ends
        width = np.searchsorted(10 ** np.arange(1, 20, dtype=np.uint64), u, side="right")
        slots *= _INT_KEEP.take(negative * 20 + width, axis=0).view(np.uint8)
        return slots
    if not (fmt[:2] == "%." and fmt[-1:] == "g" and fmt[2:-1].isdigit()
            and 0 < int(fmt[2:-1]) < 16):
        raise ValueError(f"unsupported CSV cell format {fmt!r}: only %.Pg (P <= 15) and %d")
    p, a = int(fmt[2:-1]), np.abs(x, dtype=float)
    slow = ~((a >= 1e-290) & (a <= 1e290))  # past these, 10**k below may not be a normal float
    a[slow] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    # A block of P <= 9 cells all in e-notation with a 2-digit exponent takes two
    # words a cell. The `%` text of one near a tie or a power of ten fits them too:
    # fixed notation or a 3-digit exponent come only from rounding to 1e-4 or 1e100.
    words = p <= 9 and not slow.any() and not ((e > -5) & (e < p) | (np.abs(e) > 99)).any()
    y = a * _POW10[300 + p - 1 - e]  # the mantissa times 10**(P - 1), within about 1 ulp
    m = np.rint(y)
    # Past 1e-5 * 10**(P - 9) from a tie, y's error cannot change its rounding. m
    # is out of range where it rounds up to 10**P or log10 is one off.
    slow |= np.abs(y - np.floor(y) - 0.5) < 1e-5 * 10.0 ** (p - 9)
    slow |= (m < 10.0 ** (p - 1)) | (m >= 10.0 ** p)
    if words:
        slots = _word_slots(m.astype(np.int64) * 10 ** (9 - p), e, np.signbit(x), ends)
    else:
        digits = _ascii(np.where(slow, 10.0 ** (p - 1), m).astype(np.int64), -(-p // 4))[:, -p:]
        last = p - 1 - np.argmax(digits[:, ::-1] != 48, axis=1)  # the last nonzero digit
        template, forms, table = _float_layout(p)
        slots = np.tile(template, (x.size, 1)).view(np.uint8)
        slots[:, 6:2 * p + 5:2] = digits
        slots[:, 2 * p + 6] = np.where(e < 0, 45, 43)
        slots[:, 2 * p + 7:2 * p + 10] = _DIGITS4.take(np.abs(e)[:, None]).view(np.uint8)[:, 1:]
        slots[:, 2 * p + 10] = ends
        slots *= table.take(forms[400 + e] + np.signbit(x) * p + last, axis=0).view(np.uint8)
    cells = np.flatnonzero(slow)
    text = "".join(f"{fmt % value}{chr(end)}".ljust(slots.shape[1], "\0")
                   for value, end in zip(x[cells].tolist(), ends[cells].tolist()))
    slots[cells] = np.frombuffer(text.encode(), np.uint8).reshape(-1, slots.shape[1])
    return slots


def _small_int_slots(u, ends):
    """The 8 slots of %d cells of 0 .. 9999 (a uint64 array), ended by `ends`: the
    four digits, the end and NULs as one uint64 word, masked to the cell's width."""
    words = _DIGITS4.take(u).astype(np.uint64)
    words |= ends.astype(np.uint64) << np.uint64(32)
    words &= _INT_WORD_MASKS.take(_WIDTH4.take(u))
    return words.view(np.uint8).reshape(u.size, 8)


def _word_slots(m, e, negative, ends):
    """The 16 slots of e-notation cells with a 9-digit mantissa m (an integer
    array), exponent -99 <= e <= 99 and sign `negative`, ended by `ends`: the
    sign, the lead digit, the point and 8 fraction digits, then "e+12" and the
    end, as two uint64 words each. The fraction's trailing zeros pick the mask."""
    lead = m // 100000000
    high = m // 10000 - lead * 10000
    low = m % 10000
    high_digits, low_digits = (_DIGITS4.take(chunk).astype(np.uint64) for chunk in (high, low))
    head = negative * 45 + (lead + 48) * 256 + 46 * 65536  # "-" or NUL, the lead digit, "."
    words = np.empty((m.size, 2), "<u8")
    words[:, 0] = (head.astype(np.uint64) | high_digits << np.uint64(24)
                   | low_digits << np.uint64(56))
    words[:, 1] = (low_digits >> np.uint64(8) | _EXP_WORDS.take(e + 99)
                   | ends.astype(np.uint64) << np.uint64(56))
    words &= _WORD_MASKS.take(_TZ4.take(low) + _TZ4.take(high) * (low == 0), axis=0)
    return words.view(np.uint8)


@functools.cache
def _float_layout(p):
    """The tables of %.Pg cells, whose slots are "-0.000", each digit followed
    by a ".", "e+123" and the end: their blank row (uint64 words); `forms`, the
    offset of each exponent -400 .. 399's form (the fixed notation of each
    exponent -4 .. P - 1, then the e-notation with a 2- and a 3-digit exponent);
    and the slot masks (uint64 rows) at that offset + P sign + the last nonzero digit."""
    form, neg, last = (g.ravel() for g in np.meshgrid(
        np.arange(p + 6), [False, True], np.arange(p), indexing="ij"))
    e = np.r_[np.arange(-4, p + 1), 100][form]  # an exponent of each form
    fixed = (e >= -4) & (e < p)
    point = np.where(fixed, e, 0)  # the digit the decimal point follows
    lead = fixed & (e < 0)  # "0." and -e - 1 zeros before the digits
    keep = np.zeros((neg.size, -(-(2 * p + 11) // 8) * 8), bool)
    keep[:, 0], keep[:, 1], keep[:, 2], keep[:, 2 * p + 10] = neg, lead, lead, True
    keep[:, 3:6] = np.arange(3) < np.where(lead, -e - 1, 0)[:, None]
    keep[:, 6:2 * p + 5:2] = np.arange(p) <= np.maximum(last, point)[:, None]
    keep[:, 7:2 * p + 4:2] = (np.arange(p - 1) == point[:, None]) & (last > point)[:, None]
    keep[:, 2 * p + 5:2 * p + 10] = ~fixed[:, None]
    keep[:, 2 * p + 7] &= np.abs(e) >= 100
    exponent = np.arange(-400, 400)
    forms = 2 * p * np.where((exponent >= -4) & (exponent < p), exponent + 4,
                             np.where(np.abs(exponent) < 100, p + 4, p + 5))
    blank = (b"-0.000" + b"0." * (p - 1) + b"0e+000,").ljust(keep.shape[1], b"\0")
    return np.frombuffer(blank, np.uint64), forms, keep.view(np.uint64)


def write_json(path, payload):
    """Write a JSON file the one way every output does: keys sorted,
    two-space indent, a final newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
