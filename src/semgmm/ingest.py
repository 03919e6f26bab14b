"""File formats and normalization: headerless CSV datasets, plain-text model
files, and the [0, 1] min-max normalization applied to real-world data.

Every file the package writes goes through write_rows, with lines ended by
\n on every platform.  All floating-point values are written with 17
significant digits so save/load round-trips are value-exact.
"""
from __future__ import annotations

import codecs
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

from .model import DataError, DataSet, MixtureModel

FMT = "%.17g"


def _not_utf8(path: Path, byte: int, reason: str) -> DataError:
    return DataError(f"{path}: not UTF-8 text (byte {byte}: {reason})")


# bytes per read of load_csv's pre-scan; a private constant, not a setting
_CHUNK = 1 << 20


def _has_blank_line(raw: bytes) -> bool:
    """Whether a line terminator (\n, \r\n or a lone \r, as text mode reads
    them) directly follows another in `raw`.  The pairs with \r are looked
    for only where a \r occurs: a one-byte search is a memchr, over 20
    times faster than a two-byte one."""
    return b"\n\n" in raw or (b"\r" in raw and (b"\n\r" in raw or b"\r\r" in raw))


def load_csv(path) -> DataSet:
    """Load a headerless numeric CSV (one point per row, '.' decimals).

    Rejects non-UTF-8 files, empty files, ragged rows, blank lines after the
    first row, and non-numeric or non-finite tokens, naming the offending
    byte, or row and column (1-based).  One pass over binary chunks checks
    the encoding and looks for a blank line after the first row; numpy's
    loadtxt then parses the common well-formed file straight from disk.  It
    accepts blank lines and nan/inf tokens, so any file that has those, or
    that it fails on, goes to the row parser, which names the fault.
    """
    path = Path(path)
    if _has_body_without_blank_line(path):
        try:
            points = np.loadtxt(
                path, delimiter=",", comments=None, ndmin=2, encoding="utf-8"
            )
        except ValueError:
            points = None
        if points is not None and np.isfinite(points).all():
            return DataSet(points)
    return _parse_rows(path)


def _has_body_without_blank_line(path: Path) -> bool:
    """Whether the file holds a line after its leading line terminators and
    no blank line after that; raises DataError at the first byte that is not
    UTF-8, wherever a blank line was seen."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    offset = 0
    started = blank = False
    last = b""
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(_CHUNK)
            # the decoder holds back an incomplete sequence at a chunk's end
            start = offset - len(decoder.getstate()[0])
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                raise _not_utf8(path, start + exc.start, exc.reason) from None
            if not chunk:
                return started and not blank
            offset += len(chunk)
            if not started:
                chunk = chunk.lstrip(b"\r\n")
                started = bool(chunk)
            if started and not blank:
                blank = _has_blank_line(last + chunk[:1]) or _has_blank_line(chunk)
                last = chunk[-1:]


def _parse_rows(path: Path) -> DataSet:
    """load_csv's reference parser: one line at a time, with row and column
    in every error."""
    rows: list[list[float]] = []
    width: int | None = None
    with open(path, "r", encoding="utf-8") as fh:
        for i, line in enumerate(fh, start=1):
            line = line.rstrip("\n").rstrip("\r")
            if not line and width is None:
                continue
            tokens = line.split(",")
            if width is None:
                width = len(tokens)
            elif len(tokens) != width:
                raise DataError(
                    f"{path}: row {i} has {len(tokens)} fields, expected {width}"
                )
            parsed = []
            for j, tok in enumerate(tokens, start=1):
                try:
                    v = float(tok)
                except ValueError:
                    raise DataError(
                        f"{path}: row {i}, column {j}: bad token {tok!r}"
                    ) from None
                if not np.isfinite(v):
                    raise DataError(f"{path}: row {i}, column {j}: non-finite value")
                parsed.append(v)
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: empty file")
    return DataSet(np.array(rows, dtype=np.float64))


# values formatted per string operation by write_rows; a private constant,
# not a setting
_BLOCK_VALUES = 1 << 12


def write_rows(path, parts, head: str = "") -> None:
    """Write the file `path` (and its missing directories): `head`, then
    each (row_format, rows) part.  rows is a 2-D array or a sequence of
    equal-length tuples, one row per line, and a row format that spans m
    lines takes m rows.  Each block of rows is one `%` on the repeated row
    format, so empty cells and constant text live in the format."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(head)
        for row_format, rows in parts:
            # whole row formats of at most _BLOCK_VALUES values (one per `%`)
            per = row_format.count("\n")
            step = max(1, _BLOCK_VALUES // row_format.count("%")) * per
            for lo in range(0, len(rows), step):
                block = rows[lo:lo + step]
                if isinstance(block, np.ndarray):
                    values = block.ravel().tolist()
                else:
                    values = chain.from_iterable(block)
                fh.write(row_format * (len(block) // per) % tuple(values))


def save_csv(data: DataSet, path) -> None:
    """Write one point per row, the same bytes as np.savetxt(fmt=FMT,
    delimiter=",")."""
    write_rows(path, [(",".join([FMT] * data.d) + "\n", data.points)])


def save_model(model: MixtureModel, path) -> None:
    """Plain-text model file: `gmm K D`, then per component a weight line, a
    mean line, and D covariance rows."""
    row = " ".join([FMT] * model.d) + "\n"
    parts = []
    for k in range(model.k):
        parts.append((f"w {FMT}\n", model.weights[k:k + 1, None]))
        parts.append(("mu " + row, model.means[k:k + 1]))
        parts.append(("sigma " + row, model.covariances[k]))
    write_rows(path, parts, f"gmm {model.k} {model.d}\n")


def load_model(path) -> MixtureModel:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc.start, exc.reason) from None
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise DataError(f"{path}: empty model file")
    head = lines[0].split()
    if len(head) != 3 or head[0] != "gmm":
        raise DataError(f"{path}: expected header 'gmm <K> <D>', got {lines[0]!r}")
    try:
        k, d = int(head[1]), int(head[2])
    except ValueError:
        raise DataError(f"{path}: bad header {lines[0]!r}") from None
    if k < 1 or d < 1:
        raise DataError(f"{path}: header needs K >= 1 and D >= 1, got {lines[0]!r}")
    expected = 1 + k * (2 + d)
    if len(lines) != expected:
        raise DataError(f"{path}: expected {expected} lines, got {len(lines)}")
    weights = np.empty(k)
    means = np.empty((k, d))
    covs = np.empty((k, d, d))
    pos = 1
    try:
        for c in range(k):
            tag, *vals = lines[pos].split()
            if tag != "w" or len(vals) != 1:
                raise DataError(f"{path}: line {pos + 1}: expected 'w <value>'")
            weights[c] = float(vals[0])
            pos += 1
            tag, *vals = lines[pos].split()
            if tag != "mu" or len(vals) != d:
                raise DataError(f"{path}: line {pos + 1}: expected 'mu' with {d} values")
            means[c] = [float(v) for v in vals]
            pos += 1
            for i in range(d):
                tag, *vals = lines[pos].split()
                if tag != "sigma" or len(vals) != d:
                    raise DataError(
                        f"{path}: line {pos + 1}: expected 'sigma' with {d} values"
                    )
                covs[c, i] = [float(v) for v in vals]
                pos += 1
    except ValueError:
        raise DataError(f"{path}: line {pos + 1}: bad numeric value") from None
    return MixtureModel(weights, means, covs)


@dataclass(frozen=True)
class NormalizationRecord:
    """Per-coordinate affine transform applied by normalize.

    x' = (x - offset) / scale.  Coordinates with zero original spread are
    mapped to constant 0, flagged in `degenerate`, and keep scale 1 so
    denormalization still recovers the original constant.
    """

    offset: np.ndarray
    scale: np.ndarray
    degenerate: np.ndarray

    def denormalize(self, data: DataSet) -> DataSet:
        return DataSet(data.points * self.scale + self.offset)

    def save(self, path) -> None:
        """Two CSV rows: the offsets, then the scales."""
        save_csv(DataSet(np.stack([self.offset, self.scale])), path)


def normalize(data: DataSet) -> tuple[DataSet, NormalizationRecord]:
    """Translate and scale each coordinate to fit [0, 1].

    Zero-spread coordinates are kept (as constant 0) and flagged rather than
    dropped, so D and every downstream bound stay unchanged.
    """
    lo = data.points.T.min(axis=1)
    degenerate = data.spread == 0.0
    scale = np.where(degenerate, 1.0, data.spread)
    points = (data.points - lo) / scale
    record = NormalizationRecord(offset=lo, scale=scale, degenerate=degenerate)
    return DataSet(points), record
