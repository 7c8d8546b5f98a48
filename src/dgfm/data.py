"""LIBSVM-format ingestion, row normalization, and agent partitioning.

The input is ASCII text with one sample per line, each line ending in LF or
CRLF (the last line's ending may be missing): a label, then ``index:value``
pairs with strictly increasing indices, separated by runs of spaces or tabs,

    +1 4:0.5 12:-2.0

* A label or value is a finite decimal number: an optional sign, digits with
  at most one decimal point (``1``, ``-0.5``, ``.5``, ``3.``), and an
  optional exponent (``2e-3``, ``1E+05``).
* An index is decimal digits without a sign, leading zeros allowed, with a
  value from 1 to ``MAX_INDEX`` = 2**31.
* Spaces and tabs may lead or trail a line. A line holding nothing else is
  blank and skipped; a label alone is a sample without nonzero features.

Anything else raises :class:`ParseError` naming the 1-based line: bytes that
are not text, other characters (letters but the exponent's, ``_``,
non-ASCII digits, other whitespace, a CR not followed by LF), ``nan``,
``inf`` or a number that overflows to it, and a signed index.

Indices are converted to 0-based at the parse boundary and nowhere else.
Labels are normalized to {-1, +1} by one rule over the file's label set:

* a set inside {-1, +1} is kept, so one class written -1 or +1 loads;
* any other set of exactly two values, such as {0, 1}, {1, 2} or {3, 7},
  maps the smaller value to -1 and the larger to +1;
* anything else raises :class:`ParseError`: one value alone carries no
  class information unless it is written -1 or +1, and three or more
  values are not a binary problem.

Files ending in ``.gz`` are decompressed transparently.
"""

import gzip
import io
import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import InvalidPartition, ParseError, require_int

__all__ = [
    "SparseDataset",
    "Partition",
    "load_libsvm",
    "normalize_rows",
    "parse_libsvm",
    "partition",
    "subset",
    "to_libsvm",
]

# Bytes of text per bulk parse step. A block holds whole lines, so it grows
# past this only to finish a longer line. 128 KiB blocks parsed the sparse
# benchmark corpus 4% faster, but a process loading the a9a-shaped corpus 25
# times peaked 1 MB higher with them: their larger freed temporaries stayed
# in the heap.
BLOCK_BYTES = 1 << 16
# The largest 1-based feature index: 0-based indices are stored as int32.
MAX_INDEX = 2**31
# Every byte the grammar allows.
_TEXT = b"0123456789+-.eE: \t\n"


@dataclass(frozen=True)
class SparseDataset:
    """Sparse feature rows plus +-1 labels.

    Attributes
    ----------
    features : scipy.sparse.csr_matrix, shape (n, d)
    labels : ndarray, shape (n,), entries in {-1.0, +1.0}
    """

    features: sp.csr_matrix
    labels: np.ndarray

    @property
    def n(self):
        return self.features.shape[0]

    @property
    def d(self):
        return self.features.shape[1]

    def row(self, i):
        """(indices, values) of row i, 0-based indices."""
        lo, hi = self.features.indptr[i], self.features.indptr[i + 1]
        return self.features.indices[lo:hi], self.features.data[lo:hi]


def _normalize_labels(raw):
    """Labels in {-1, +1} by the rule of the module docstring."""
    values = np.unique(raw)
    if np.isin(values, (-1.0, 1.0)).all():
        return raw
    if values.shape[0] != 2:
        raise ParseError(
            f"cannot map labels {values.tolist()} to -1/+1: need exactly two classes,"
            " and a single class must be written -1 or +1"
        )
    return np.where(raw == values[0], -1.0, 1.0)


def parse_libsvm(source):
    """Parse LIBSVM text from a string, bytes, or a text or binary stream.

    The text is read in blocks of whole lines of about `BLOCK_BYTES` each,
    and each block is parsed by a fixed number of numpy passes. A block that
    fails one of their checks is read again line by line, and the first line
    that breaks the grammar of the module docstring raises
    :class:`ParseError` carrying its 1-based number.
    """
    if isinstance(source, str):
        source = source.encode("utf-8", "surrogatepass")
    if isinstance(source, bytes):
        source = io.BytesIO(source)
    labels, row_nnz, indices, data = [], [], [], []
    d = lines = 0
    for block in _blocks(source.read):
        if b"\r" in block:
            block = block.replace(b"\r\n", b"\n")
        parsed = _parse_block(block)
        if parsed is None:
            _raise_first_error(block, lines + 1)
        *arrays, width, count = parsed
        for parts, part in zip((labels, row_nnz, indices, data), arrays):
            parts.append(part)
        d, lines = max(d, width), lines + count
    # joined one at a time, freeing each list's blocks, to keep the peak low
    data = _join(data, np.float64)
    indices = _join(indices, np.int32)
    indptr = np.concatenate(([0], np.cumsum(_join(row_nnz, np.int64))))
    labels = _normalize_labels(_join(labels, np.float64))
    features = sp.csr_matrix((data, indices, indptr), shape=(labels.shape[0], d))
    return SparseDataset(features=features, labels=labels)


def _join(parts, dtype):
    """The concatenation of the per-block arrays ``parts``, which are freed."""
    joined = np.concatenate([np.empty(0, dtype), *parts])
    parts.clear()
    return joined


def _blocks(read):
    """What ``read(n)`` returns, as blocks of whole lines that each end in a
    line feed. Text is encoded as UTF-8, so non-ASCII text fails the byte
    check of `_parse_block` like any other stray byte."""
    pieces = []
    while chunk := read(BLOCK_BYTES):
        if isinstance(chunk, str):
            chunk = chunk.encode("utf-8", "surrogatepass")
        cut = chunk.rfind(b"\n") + 1
        if cut:
            pieces.append(chunk[:cut])
            yield b"".join(pieces)
            pieces = []
        pieces.append(chunk[cut:])
    tail = b"".join(pieces)
    if tail:
        yield tail + b"\n"


def _parse_block(block):
    """Parse a block of whole lines with LF endings.

    Returns the block's labels, row lengths, 0-based indices, values, width
    (largest 1-based index) and line count, or None if it breaks the
    grammar. Positions index the block's bytes ``a``; every temporary is as
    long as the block's bytes or tokens.
    """
    if block.translate(None, _TEXT):
        return None
    a = np.frombuffer(block, dtype=np.uint8)
    sep = np.empty(a.shape[0] + 1, dtype=bool)  # sep[i + 1]: a[i] separates tokens
    sep[0] = True
    np.less_equal(a, 32, out=sep[1:])  # space, tab or LF: no other byte this low is left
    edges = np.flatnonzero(sep[1:] != sep[:-1])
    del sep
    starts, ends = edges[0::2], edges[1::2]  # token t is a[starts[t]:ends[t]]
    newline = np.flatnonzero(a == 10)
    label = np.zeros(starts.shape[0], dtype=bool)  # a line's first token
    label[:1] = True
    first = np.searchsorted(starts, newline)
    label[first[first < starts.shape[0]]] = True
    feature = ~label
    begin = starts[feature]
    colon = np.flatnonzero(a == 58)
    # exactly one colon in each feature token, none in a label, and neither
    # side of a colon empty
    if colon.shape != begin.shape or not (
            (begin < colon) & (colon < ends[feature] - 1)).all():
        return None
    width = colon - begin
    del begin
    index = np.zeros(colon.shape[0], dtype=np.int64)
    for k in range(width.max(initial=0)):
        # the k-th digit from the right; shorter indices read another byte
        # (or wrap around), which is zeroed
        digit = a[colon - 1 - k] - np.uint8(48)
        digit[width <= k] = 0
        if (digit > 9).any():
            return None
        if k < 10:
            index += np.multiply(digit, 10**k, dtype=np.int64)
        elif digit.any():
            return None
    if not ((index >= 1) & (index <= MAX_INDEX)).all():
        return None
    after_label = label[:-1][feature[1:]]  # a row's first feature
    if not (after_label[1:] | (index[1:] > index[:-1])).all():
        return None
    field = starts.copy()  # the label, or the value after a feature's colon
    field[feature] = colon + 1
    numbers = _to_float(a, field, ends - field)
    if numbers is None or not np.isfinite(numbers).all():
        return None
    row_nnz = np.diff(np.append(np.flatnonzero(label), label.shape[0])) - 1
    return (numbers[label], row_nnz, (index - 1).astype(np.int32), numbers[feature],
            int(index.max(initial=0)), newline.shape[0])


def _to_float(a, start, length):
    """float64 of the fields ``a[start:start + length]``, or None if one is
    not a decimal number.

    Each field is copied, with the bytes after it, into a fixed-width byte
    string; a mask zeroes those bytes, and one ``astype`` converts the
    strings. Fields are grouped by width class (8, 16, 32, ... bytes), so
    a string takes at most twice its field's bytes, or 8.
    """
    bits = np.frexp(np.maximum(length, 8) - 1)[1]  # width class 2**bits
    top = int(bits.max(initial=3))
    padded = np.concatenate((a, np.zeros(1 << top, dtype=np.uint8)))
    out = np.empty(start.shape[0])
    for bit in range(3, top + 1):
        width, pick = 1 << bit, bits == bit
        # every width-byte window of the block, and the mask keeping the
        # first n bytes of a window, as words, for n = 0 .. width
        windows = np.ndarray((padded.shape[0] - width + 1,), dtype=f"S{width}",
                             buffer=padded, strides=(1,))
        keep = (np.arange(width) < np.arange(width + 1)[:, None]).astype(np.uint8) * np.uint8(255)
        fields = windows[start[pick]]
        words = fields.view(np.uint64).reshape(-1, width // 8)
        words &= np.take(keep.view(np.uint64), length[pick], axis=0)
        try:
            out[pick] = fields.astype(np.float64)
        except ValueError:
            return None
    return out


def _raise_first_error(block, first_line):
    """Raise the ParseError of the first line of ``block`` that breaks the
    grammar; ``first_line`` is the 1-based number of its first line."""
    for lineno, raw in enumerate(block.split(b"\n"), start=first_line):
        try:
            line = raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"byte 0x{raw[exc.start]:02x} is not text", line=lineno) from None
        _check_line(line, lineno)
    raise RuntimeError("a block failed a bulk check, but none of its lines breaks the grammar")


def _check_line(line, lineno):
    """Raise ParseError if ``line`` breaks the grammar.

    The first pass makes the checks of the former per-token parser, in its
    order and with its messages; the second adds the rules it lacked.
    """
    fields = line.split()
    if fields:
        try:
            float(fields[0])
        except ValueError:
            raise ParseError(f"label {fields[0]!r} is not numeric", line=lineno) from None
    prev = 0
    for field in fields[1:]:
        idx_str, sep, val_str = field.partition(":")
        if not sep:
            raise ParseError(f"feature {field!r} is missing ':'", line=lineno)
        try:
            idx = int(idx_str)
            float(val_str)
        except ValueError:
            raise ParseError(f"feature {field!r} is not numeric", line=lineno) from None
        if idx < 1:
            raise ParseError(f"feature index {idx} must be >= 1", line=lineno)
        if idx <= prev:
            raise ParseError(f"feature index {idx} not strictly increasing", line=lineno)
        prev = idx
    if fields and not math.isfinite(float(fields[0])):
        raise ParseError(f"label {fields[0]!r} is not finite", line=lineno)
    for field in fields[1:]:
        idx_str, _, val_str = field.partition(":")
        if not (idx_str.isascii() and idx_str.isdigit()):
            raise ParseError(f"feature index {idx_str!r} is not plain digits", line=lineno)
        if int(idx_str) > MAX_INDEX:
            raise ParseError(f"feature index {int(idx_str)} exceeds {MAX_INDEX}", line=lineno)
        if not math.isfinite(float(val_str)):
            raise ParseError(f"feature {field!r} is not finite", line=lineno)
    allowed = _TEXT.decode()
    for char in line:
        if char not in allowed:
            raise ParseError(f"character {char!r} is not allowed", line=lineno)


def load_libsvm(path):
    """Parse a LIBSVM file; ``.gz`` suffixed files are gunzipped on the fly."""
    opener = gzip.open if str(path).endswith(".gz") else open
    with opener(path, "rb") as stream:
        return parse_libsvm(stream)


def to_libsvm(dataset):
    """Serialize back to LIBSVM text; round-trips through `parse_libsvm`."""
    lines = []
    for i in range(dataset.n):
        idx, val = dataset.row(i)
        label = int(dataset.labels[i])
        pairs = " ".join(f"{j + 1}:{float(v)!r}" for j, v in zip(idx, val))
        lines.append(f"{label} {pairs}".rstrip())
    return "\n".join(lines) + ("\n" if lines else "")


def normalize_rows(dataset):
    """Scale every nonzero row to unit L2 norm; zero rows and labels untouched.

    Unit rows make the per-sample hinge 1-Lipschitz, which is what turns
    the Lipschitz hint of the SVM objective into a usable constant.
    """
    features = dataset.features.copy()
    norms = np.sqrt(np.asarray(features.multiply(features).sum(axis=1)).ravel())
    scale = np.ones_like(norms)
    nonzero = norms > 0.0
    scale[nonzero] = 1.0 / norms[nonzero]
    # scale the stored values directly; keeps sparsity structure and index order
    features.data = features.data * np.repeat(scale, np.diff(features.indptr))
    return SparseDataset(features=features, labels=dataset.labels)


@dataclass(frozen=True)
class Partition:
    """Disjoint cover of sample indices, one non-empty index array per agent."""

    assignment: list
    n: int

    def __post_init__(self):
        if any(a.ndim != 1 for a in self.assignment):
            raise InvalidPartition("each agent's assignment must be a 1-D index array")
        empty = [i for i, a in enumerate(self.assignment) if a.shape[0] == 0]
        if empty:
            raise InvalidPartition(f"agent {empty[0]} has no samples")
        flat = np.concatenate(self.assignment) if self.assignment else np.array([], dtype=int)
        if flat.shape[0] != self.n or not np.array_equal(np.sort(flat), np.arange(self.n)):
            raise InvalidPartition(
                f"assignment must cover each of {self.n} samples exactly once"
            )

    @property
    def m(self):
        return len(self.assignment)

    @property
    def sizes(self):
        return [a.shape[0] for a in self.assignment]


def partition(dataset, m, seed):
    """Shuffle sample indices by seed, then deal them round-robin to m agents.

    ``dataset`` is a `SparseDataset` or its sample count. Sizes differ by
    at most one. Deterministic in the seed, which must be >= 0
    (`InvalidParameter`). With a single agent the natural order is kept so
    that single-agent runs consume samples exactly like the centralized
    baselines.
    """
    n = dataset.n if isinstance(dataset, SparseDataset) else require_int(0, dataset=dataset)
    if isinstance(m, numbers.Real) and m < 1:
        raise InvalidPartition(f"need at least one agent, got {m}")
    m = require_int(1, m=m)
    if n < m:
        raise InvalidPartition(f"cannot split {n} samples across {m} agents")
    seed = require_int(0, seed=seed)
    if m == 1:
        return Partition(assignment=[np.arange(n)], n=n)
    perm = np.random.default_rng(seed).permutation(n)
    return Partition(assignment=[perm[i::m] for i in range(m)], n=n)


def subset(dataset, n, seed=None):
    """First-n rows (seed None) or a seeded n-row sample without replacement."""
    n = require_int(1, **{"subset size": n})
    if seed is not None:
        seed = require_int(0, **{"subset seed": seed})
    if n >= dataset.n:
        return dataset
    if seed is None:
        keep = np.arange(n)
    else:
        keep = np.sort(np.random.default_rng(seed).choice(dataset.n, size=n, replace=False))
    return SparseDataset(
        features=sp.csr_matrix(dataset.features[keep]), labels=dataset.labels[keep]
    )
