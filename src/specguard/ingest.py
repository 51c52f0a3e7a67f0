"""Snapshot ingestion: observable pairs from files, raw states, or built-in dictionaries.

A snapshot series is an ordered collection of observable pairs
(a_m, b_m) = (psi(X_m), psi(Y_m)) in C^N. Everything downstream (Gram
matrices, characteristic matrices, variance kernels) consumes this one type.

File formats
------------
CSV: one header line

    # specguard-snapshots v1 N=<n> kind=<iid|trajectory> dt=<float|none>

followed by M rows of 4N columns:
re(a_1), im(a_1), ..., re(a_N), im(a_N), re(b_1), im(b_1), ..., re(b_N), im(b_N).

JSON mirrors this with explicit arrays under schema "specguard/v1/snapshots".
The loader reads the layout from the file's first non-blank character.
"""

from __future__ import annotations

import json
import threading
import warnings
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Callable, Hashable, Literal, TypeVar

import numpy as np

from . import _blas
from .errors import FormatError, InsufficientDataError, ShapeError

__all__ = [
    "SnapshotSeries",
    "DictionarySpec",
    "load_snapshots",
    "write_snapshots",
    "evaluate_dictionary",
    "delay_embed",
]

CSV_MAGIC = "# specguard-snapshots v1"
JSON_SCHEMA = "specguard/v1/snapshots"
_CSV_BLOCK = 256    # rows per CSV write: no text or copy of a whole series is held
#: rows per block wherever an estimate reads a series (:func:`_row_blocks`).
_ROW_BLOCK = 512


def monomial_exponents(max_degree: int, state_dim: int) -> list[tuple[int, ...]]:
    """Exponent tuples of the per-delay monomial family, graded-lex ordered.

    The family is: total degree between 1 and max_degree, every exponent at
    most 2, and at most two nonzero exponents. For (max_degree=3, state_dim=3)
    this yields 15 monomials per delayed state, so a 10-delay dictionary has
    N = 1 + 10*15 = 151 observables.
    """
    if max_degree < 1 or state_dim < 1:
        raise ShapeError("monomial family needs max_degree >= 1 and state_dim >= 1")
    exps = []
    for e in product(range(min(max_degree, 2) + 1), repeat=state_dim):
        deg = sum(e)
        if not 1 <= deg <= max_degree:
            continue
        if sum(1 for k in e if k > 0) > 2:
            continue
        exps.append(e)
    # graded lexicographic, first variable major
    exps.sort(key=lambda e: (sum(e), tuple(-k for k in e)))
    return exps


@dataclass(frozen=True)
class DictionarySpec:
    """Which observable dictionary produced (or will produce) a series.

    variant is one of "trig", "monomial_delay", "identity"; n_obs is the
    resulting number of observables N.
    """

    variant: Literal["trig", "monomial_delay", "identity"]
    n_obs: int
    max_degree: int = 0
    n_delays: int = 0
    state_dim: int = 0

    @staticmethod
    def trig(n_obs: int) -> "DictionarySpec":
        """Fourier dictionary {1, cos x, sin x, ..., sin((N-2)x/2), cos(Nx/2)}; N even."""
        if n_obs < 2 or n_obs % 2 != 0:
            raise ShapeError(f"trig dictionary needs even N >= 2, got {n_obs}")
        return DictionarySpec("trig", n_obs)

    @staticmethod
    def monomial_delay(max_degree: int, n_delays: int, state_dim: int) -> "DictionarySpec":
        """Constant plus per-delay monomial blocks over a sliding window of states."""
        if n_delays < 1:
            raise ShapeError(f"monomial_delay needs n_delays >= 1, got {n_delays}")
        n_mono = len(monomial_exponents(max_degree, state_dim))
        return DictionarySpec(
            "monomial_delay",
            1 + n_delays * n_mono,
            max_degree=max_degree,
            n_delays=n_delays,
            state_dim=state_dim,
        )

    @staticmethod
    def identity(state_dim: int) -> "DictionarySpec":
        """psi(x) = x."""
        if state_dim < 1:
            raise ShapeError(f"identity dictionary needs state_dim >= 1, got {state_dim}")
        return DictionarySpec("identity", state_dim, state_dim=state_dim)


_T = TypeVar("_T")


class _Memo:
    """Statistics of one series that every estimate on it shares.

    Each entry is built on first use, under one BLAS thread so that its
    bits do not depend on the caller's thread settings, and lives as long
    as the series.  The keys in use are "gram" (the Gram pair), "work"
    (the whitened working basis that estimates read, in row blocks, with
    the rcond of Psi_XX; it keeps R = conj(W) and a memo of its own, never
    the whitened rows), "fit" (a working basis' EDMD modes), "real_iid"
    (the real iid covariance with its fourth-moment tensor) and
    ("route", l_window, mu_list) (a kernel's covariance route on the
    series: kappa and whether the tensor applies).
    """

    def __init__(self) -> None:
        self._values: dict[Hashable, object] = {}
        self._lock = threading.RLock()

    def get_or_build(self, key: Hashable, build: Callable[[], _T]) -> _T:
        """The entry ``key``, from ``build()`` if it is not there yet."""
        with self._lock:
            if key not in self._values:
                with _blas.single_thread():
                    self._values[key] = build()
            return self._values[key]


@dataclass(frozen=True)
class SnapshotSeries:
    """Ordered observable pairs with sampling metadata.

    a and b are (M, N) arrays; row m holds psi(X_m) and psi(Y_m).  Both are
    float64 if no input entry has a nonzero imaginary part, else complex128.
    For sampling_kind "trajectory" the row order is the time order, so lag
    structure is meaningful.  dt, the time between a_m and b_m, is None or a
    positive finite float (else FormatError); a sweep reports log(lambda)/dt
    when it is set.  Instances are immutable after construction and
    safe to share across threads: a and b are read-only arrays the series
    owns (a caller's array is copied, never frozen; the arrays that
    specguard's own loaders and builders allocate are stored once, not
    copied), and the data statistics that estimates share are computed
    once, in ``_memo``.  Estimates read rows only through ``_rows``, a
    block at a time (:func:`_row_blocks`); so does the whitened working
    basis that the memo keeps, which holds no rows of its own, so a series
    holds its samples once.
    """

    a: np.ndarray
    b: np.ndarray
    sampling_kind: Literal["iid", "trajectory"]
    dt: float | None = None
    _memo: _Memo = field(default_factory=_Memo, init=False, compare=False, repr=False)

    def __post_init__(self):
        self._store(self.a, self.b, adopt=False)

    @classmethod
    def _adopt(cls, a, b, sampling_kind, dt=None) -> "SnapshotSeries":
        """A series built from arrays a builder just allocated and that nothing else references.

        Validated and typed as by __init__; an array that is C-contiguous,
        owns its data and has the stored dtype is frozen and kept, not copied.
        """
        series = cls.__new__(cls)
        for name, value in (("sampling_kind", sampling_kind), ("dt", dt), ("_memo", _Memo())):
            object.__setattr__(series, name, value)
        series._store(a, b, adopt=True)
        return series

    def _store(self, a, b, adopt: bool) -> None:
        given = np.asarray(a), np.asarray(b)
        dtype = complex if any(np.iscomplexobj(x) and x.imag.any() for x in given) else float
        a, b = (np.ascontiguousarray(x if dtype is complex else x.real, dtype=dtype) for x in given)
        if a.ndim != 2 or a.shape != b.shape:
            raise ShapeError(f"a and b must be (M, N) of equal shape, got {a.shape} / {b.shape}")
        if a.shape[0] < 1 or a.shape[1] < 1:
            raise InsufficientDataError(f"need at least one pair and N >= 1, got shape {a.shape}")
        if self.sampling_kind not in ("iid", "trajectory"):
            raise FormatError(f"unknown sampling_kind {self.sampling_kind!r}")
        dt = None if self.dt is None else float(self.dt)
        if dt is not None and not (np.isfinite(dt) and dt > 0.0):
            raise FormatError(f"dt must be positive and finite, got {self.dt!r}")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise FormatError("series contains non-finite entries")
        # Own the data, so that no caller can change it after the memo is filled.
        a, b = (x.copy() if np.may_share_memory(x, g) and not (adopt and x.flags.owndata) else x
                for x, g in zip((a, b), given))
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "dt", dt)

    def __reduce__(self):
        # A pickled or copied series is rebuilt through __init__: its arrays
        # come back read-only and its memo empty.
        return (SnapshotSeries, (self.a, self.b, self.sampling_kind, self.dt))

    @property
    def M(self) -> int:
        return self.a.shape[0]

    @property
    def N(self) -> int:
        return self.a.shape[1]

    @property
    def _dtype(self) -> np.dtype:
        """The stored dtype of a and b: float64 for a real series, else complex128."""
        return self.a.dtype

    def _rows(self, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Rows start..stop-1 of a and b, as read-only views."""
        return self.a[start:stop], self.b[start:stop]


def _row_blocks(series, extra: int = 0):
    """``(size, a, b)`` for each block of ``_ROW_BLOCK`` rows of a series or working basis.

    ``a`` and ``b`` hold the block's ``size`` rows and the (up to) ``extra``
    rows after it, as ``series._rows`` reads them; nothing grows with M.
    """
    for start in range(0, series.M, _ROW_BLOCK):
        a, b = series._rows(start, start + _ROW_BLOCK + extra)
        yield min(_ROW_BLOCK, series.M - start), a, b


class _Rows(list):
    """A matrix that json's encoder lists one row at a time, from a one-shot iterator of rows."""

    def __init__(self, rows):
        super().__init__()
        self._rows = rows

    def __bool__(self) -> bool:  # the encoder writes an empty list as "[]" without iterating
        return True

    def __iter__(self):
        return self._rows


def write_snapshots(series: SnapshotSeries, path: str | Path, format: str = "csv") -> None:
    """Write a series in the v1 CSV or JSON layout, row by row; load_snapshots reads it back."""
    path = Path(path)
    if format == "csv":
        dt = "none" if series.dt is None else repr(float(series.dt))
        with path.open("w") as out:
            out.write(f"{CSV_MAGIC} N={series.N} kind={series.sampling_kind} dt={dt}\n")
            for start in range(0, series.M, _CSV_BLOCK):
                ab = np.hstack([x[start : start + _CSV_BLOCK] for x in (series.a, series.b)])
                if ab.dtype.kind == "c":  # the float view interleaves re and im, as the layout does
                    lines = (",".join(map(repr, row)) for row in ab.view(float).tolist())
                else:  # every imaginary part of a real series is 0.0
                    lines = (",0.0,".join(map(repr, row)) + ",0.0" for row in ab.tolist())
                out.write("\n".join(lines) + "\n")
    elif format == "json":
        doc = {"schema": JSON_SCHEMA, "N": series.N, "kind": series.sampling_kind, "dt": series.dt}
        for name, x in (("a", series.a), ("b", series.b)):
            doc[f"{name}_re"] = _Rows(row.real.tolist() for row in x)
            doc[f"{name}_im"] = _Rows(row.imag.tolist() for row in x)
        with path.open("w") as out:
            json.dump(doc, out, sort_keys=True, indent=1)
            out.write("\n")
    else:
        raise FormatError(f"unknown snapshot format {format!r}")


def _parse_csv_header(line: str) -> tuple[int, str, float | None]:
    if not line.startswith(CSV_MAGIC):
        raise FormatError(f"missing header {CSV_MAGIC!r}; got {line[:60]!r}")
    fields = dict(tok.split("=", 1) for tok in line[len(CSV_MAGIC):].split() if "=" in tok)
    try:
        n_tok, kind, dt_tok = fields["N"], fields["kind"], fields["dt"]
    except KeyError as exc:
        raise FormatError(f"header missing field {exc}") from exc
    if not n_tok.isdigit() or int(n_tok) < 1:
        raise FormatError(f"header field N={n_tok!r} is not a positive integer")
    try:
        dt = None if dt_tok == "none" else float(dt_tok)
    except ValueError:
        raise FormatError(f"header field dt={dt_tok!r} is neither a number nor 'none'") from None
    return int(n_tok), kind, dt


def _parse_csv_rows(lines: list[str], n: int) -> np.ndarray:
    """The data rows, parsed one by one so that an error names its row.

    ``lines`` are the non-blank lines after the header.
    """
    rows = []
    for idx, ln in enumerate(lines):
        cells = ln.split(",")
        if len(cells) != 4 * n:
            raise ShapeError(
                f"row {idx}: expected {4 * n} columns for N={n}, got {len(cells)}"
            )
        try:
            vals = np.array([float(c) for c in cells])
        except ValueError as exc:
            raise FormatError(f"row {idx}: non-numeric entry ({exc})") from exc
        if not np.all(np.isfinite(vals)):
            raise FormatError(f"row {idx}: non-finite entry")
        rows.append(vals)
    return np.vstack(rows) if rows else np.empty((0, 4 * n))


def _load_csv(path: Path) -> tuple[np.ndarray, int, str, float | None]:
    """The numeric block of a v1 CSV file, with the header's N, kind and dt.

    Blank lines are skipped.  The block is parsed in one pass; a file that
    pass rejects, or whose width is wrong, is parsed again row by row, so
    that the error names the offending row.
    """
    with open(path) as fh:
        header = ""
        while not header.strip():
            header = fh.readline()
            if not header:
                raise FormatError(f"{path} is empty")
        n, kind, dt = _parse_csv_header(header.strip("\r\n"))
        try:
            with warnings.catch_warnings():
                # A header with no data rows is reported below, by count.
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                flat = np.loadtxt(fh, delimiter=",", comments=None, dtype=float, ndmin=2)
        except ValueError:
            flat = None
    if flat is None or (len(flat) and flat.shape[1] != 4 * n):
        lines = [ln for ln in path.read_text().splitlines() if ln.strip()]
        return _parse_csv_rows(lines[1:], n), n, kind, dt
    finite = np.all(np.isfinite(flat), axis=1)
    if not np.all(finite):
        raise FormatError(f"row {int(np.argmax(~finite))}: non-finite entry")
    return flat, n, kind, dt


def _pairs(a_re, a_im, b_re, b_im) -> tuple[np.ndarray, np.ndarray]:
    """a and b from their parts, real by SnapshotSeries' rule (the two must agree)."""
    real = not (a_im.any() or b_im.any())
    return (a_re, b_re) if real else (a_re + 1j * a_im, b_re + 1j * b_im)


def load_snapshots(path: str | Path) -> SnapshotSeries:
    """Load a snapshot series, validating width, finiteness, dt and M >= 2.

    The file, not its name, says its layout: JSON if its first non-blank
    character is ``{`` or ``[``, else CSV, whose header check rejects a
    file that is neither.  Raises FormatError for a malformed header, a
    non-numeric or non-finite row, invalid JSON, a missing or mistyped
    JSON field, or a dt that is not positive and finite, ShapeError for
    inconsistent row width or JSON arrays whose shapes disagree with each
    other or with the declared N (CSV errors name the row, counting data
    rows from 0 and skipping blank lines), and InsufficientDataError when
    fewer than two pairs are present.
    """
    path = Path(path)
    with open(path) as fh:
        head = next((c.lstrip() for c in iter(lambda: fh.read(4096), "") if c.strip()), "")
    if head[:1] not in ("{", "["):
        flat, n, kind, dt = _load_csv(path)
        a, b = _pairs(flat[:, : 2 * n : 2], flat[:, 1 : 2 * n : 2],
                      flat[:, 2 * n :: 2], flat[:, 2 * n + 1 :: 2])
    else:
        try:
            doc = json.loads(path.read_text())
        except ValueError as exc:
            raise FormatError(f"{path} is not valid JSON ({exc})") from None
        if not isinstance(doc, dict):
            raise FormatError(f"{path}: expected a JSON object, got {type(doc).__name__}")
        if doc.get("schema") != JSON_SCHEMA:
            raise FormatError(f"expected schema {JSON_SCHEMA!r}, got {doc.get('schema')!r}")
        missing = [k for k in ("N", "kind", "a_re", "a_im", "b_re", "b_im") if k not in doc]
        if missing:
            raise FormatError(f"JSON missing field {missing[0]!r}")
        n, kind, dt = doc["N"], doc["kind"], doc.get("dt")
        if type(n) is not int or n < 1:
            raise FormatError(f"JSON field 'N' must be a positive integer, got {n!r}")
        if dt is not None and type(dt) not in (int, float):
            raise FormatError(f"JSON field 'dt' must be a number or null, got {dt!r}")
        parts = {}
        for name in ("a_re", "a_im", "b_re", "b_im"):
            try:
                parts[name] = np.asarray(doc[name], dtype=float)
            except (TypeError, ValueError) as exc:
                raise FormatError(f"JSON field {name!r} is not a numeric matrix ({exc})") from None
        shapes = {name: arr.shape for name, arr in parts.items()}
        if len(set(shapes.values())) != 1 or parts["a_re"].ndim != 2:
            raise ShapeError(f"JSON arrays must be (M, N) matrices of one shape, got {shapes}")
        width = parts["a_re"].shape[1]
        if width != n:
            raise ShapeError(f"JSON declares N={n}, but its arrays have {width} columns")
        a, b = _pairs(parts["a_re"], parts["a_im"], parts["b_re"], parts["b_im"])
        finite = np.all(np.isfinite(a), axis=1) & np.all(np.isfinite(b), axis=1)
        if not np.all(finite):
            raise FormatError(f"non-finite entry in row {int(np.argmin(finite))}")
    if len(a) < 2:
        raise InsufficientDataError(f"{path} holds {len(a)} pairs; need at least 2")
    return SnapshotSeries._adopt(a, b, kind, dt=dt)


def _trig_eval(x: np.ndarray, n_obs: int) -> np.ndarray:
    """Rows psi(x) for the Fourier dictionary {1, cos x, sin x, ..., cos(Nx/2)}."""
    x = np.asarray(x, dtype=float).reshape(-1)
    out = np.empty((x.size, n_obs))
    out[:, 0] = 1.0
    for k in range(1, (n_obs - 2) // 2 + 1):
        out[:, 2 * k - 1] = np.cos(k * x)
        out[:, 2 * k] = np.sin(k * x)
    out[:, n_obs - 1] = np.cos((n_obs // 2) * x)
    return out


def _monomial_eval(states: np.ndarray, exps: list[tuple[int, ...]], out: np.ndarray) -> None:
    """Write the monomial values x^e of states (M, d) into the columns of ``out``, in order."""
    for j, e in enumerate(exps):
        col = np.ones(states.shape[0])
        for axis, k in enumerate(e):
            if k:
                col = col * states[:, axis] ** k
        out[:, j] = col


def _as_states(x, name: str) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if x.ndim != 2:
        raise ShapeError(f"{name} must be an (M, d) matrix, got ndim {x.ndim}")
    return x


def evaluate_dictionary(
    x_states,
    y_states,
    dict_spec: DictionarySpec,
    sampling_kind: str = "iid",
    dt: float | None = None,
) -> SnapshotSeries:
    """Map raw state pairs through an observable dictionary.

    x_states/y_states are (M, d) real matrices; row m gives a_m = psi(x_m)
    and b_m = psi(y_m). trig requires d = 1; identity and monomial_delay
    require d = state_dim (monomial_delay only for n_delays = 1; longer
    windows need delay_embed, which owns the time alignment).
    """
    x = _as_states(x_states, "x_states")
    y = _as_states(y_states, "y_states")
    if x.shape != y.shape:
        raise ShapeError(f"x_states {x.shape} and y_states {y.shape} differ")
    build = SnapshotSeries._adopt
    if dict_spec.variant == "trig":
        if x.shape[1] != 1:
            raise ShapeError(f"trig dictionary needs 1-d states, got d={x.shape[1]}")
        a = _trig_eval(x[:, 0], dict_spec.n_obs)
        b = _trig_eval(y[:, 0], dict_spec.n_obs)
    elif dict_spec.variant == "identity":
        if x.shape[1] != dict_spec.state_dim:
            raise ShapeError(
                f"identity dictionary needs d={dict_spec.state_dim}, got {x.shape[1]}"
            )
        a, b, build = x, y, SnapshotSeries  # the caller's own arrays: copied
    elif dict_spec.variant == "monomial_delay":
        if dict_spec.n_delays != 1:
            raise ShapeError(
                "evaluate_dictionary handles monomial_delay only for n_delays=1; "
                "use delay_embed for longer windows"
            )
        if x.shape[1] != dict_spec.state_dim:
            raise ShapeError(
                f"monomial dictionary needs d={dict_spec.state_dim}, got {x.shape[1]}"
            )
        exps = monomial_exponents(dict_spec.max_degree, dict_spec.state_dim)
        a, b = np.empty((len(x), 1 + len(exps))), np.empty((len(y), 1 + len(exps)))
        for side, states in ((a, x), (b, y)):
            side[:, 0] = 1.0
            _monomial_eval(states, exps, side[:, 1:])
    else:
        raise ShapeError(f"unknown dictionary variant {dict_spec.variant!r}")
    return build(a, b, sampling_kind, dt=dt)


def delay_embed(
    raw_series, dict_spec: DictionarySpec, step: int = 1, dt: float | None = None
) -> SnapshotSeries:
    """Build delay-monomial observable pairs from a single trajectory.

    raw_series is (T, d) with rows in time order at a fixed sampling step.
    Pair m stacks the constant 1 and, delay by delay (most recent first),
    the monomials of the states at times m+n_delays, ..., m+1; the b-vector
    is the same construction advanced by `step` samples, so b_m = a_{m+step}
    whenever both exist. The oldest n_delays states are consumed as warm-up
    rather than zero-padded. M = T - n_delays - step.
    """
    if dict_spec.variant != "monomial_delay":
        raise ShapeError("delay_embed requires a monomial_delay dictionary")
    if step < 1:
        raise ShapeError(f"step must be a positive integer, got {step}")
    states = _as_states(raw_series, "raw_series")
    T = states.shape[0]
    if states.shape[1] != dict_spec.state_dim:
        raise ShapeError(
            f"trajectory has d={states.shape[1]}, dictionary expects {dict_spec.state_dim}"
        )
    n_delays = dict_spec.n_delays
    M = T - n_delays - step
    if M < 1:
        raise InsufficientDataError(
            f"T={T} too short for n_delays={n_delays}, step={step} (need T > n_delays + step)"
        )
    exps = monomial_exponents(dict_spec.max_degree, dict_spec.state_dim)
    n_mono = len(exps)
    mono = np.empty((T, n_mono))
    _monomial_eval(states, exps, mono)

    def window(lead: int) -> np.ndarray:
        # Rows lead, ..., lead + M - 1; delay d reads the slice d rows earlier.
        out = np.empty((M, dict_spec.n_obs))
        out[:, 0] = 1.0
        for d in range(n_delays):
            out[:, 1 + d * n_mono : 1 + (d + 1) * n_mono] = mono[lead - d : lead - d + M]
        return out

    a = window(n_delays)
    b = window(n_delays + step)
    return SnapshotSeries._adopt(a, b, "trajectory", dt=dt)
