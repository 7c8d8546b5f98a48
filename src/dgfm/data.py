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

Numbers are read eight bytes at a time. The 8 bytes that end a field are
loaded as one little-endian 64-bit word, and three multiply-and-shift
steps combine eight digits held in a word (Lemire, "Number Parsing at a
Gigabyte per Second", 2021). An index of at most 8 digits is one such
word; a longer one adds its other digits one at a time. A label or value
of at most 8 bytes of the form ``[+-]digits[.digits]`` (also ``.5`` and
``5.``) has its sign and dot taken out, and is its digits' integer m over
10**k, with k digits after the dot. As m < 10**8 and 10**k are exact
doubles, the one division rounds correctly (Clinger, "How to Read
Floating Point Numbers Accurately", 1990): the value is the correctly
rounded decimal, as numpy's string conversion gives it, bit for bit and
``-0`` included. Every other field (9 bytes or more, an exponent, anything
malformed) is handed over unchanged, as bytes, to numpy's conversion, and
a field that fails there sends the block to the line-by-line checks,
which name the line.

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


def _bytes_of(byte):
    """The uint64 with ``byte`` in each of its 8 bytes."""
    return np.uint64(byte * 0x0101010101010101)


# Constants of the word arithmetic of `_digit_words`, `_eight_digits` and
# `_decimal_words`, as uint64 so that it stays in wrapping uint64 arrays.
_ZEROS, _DOT_DIGITS, _BIG_DIGITS = (_bytes_of(b) for b in (0x30, ord(".") ^ 0x30, 0x76))
_HIGH_BITS, _LOW_SEVEN_BITS, _ONES = (_bytes_of(b) for b in (0x80, 0x7F, 0x01))
# Multipliers that combine digit pairs, then fours, then the eight, and the
# masks that keep the pairs and the fours.
_PAIRS, _FOURS, _EIGHTS = (np.uint64(f * 2**s + 1) for f, s in ((10, 8), (100, 16), (10000, 32)))
_PAIR_MASK, _FOUR_MASK = np.uint64(0x00FF00FF00FF00FF), np.uint64(0x0000FFFF0000FFFF)
# A word times this holds 8 - p in its top byte when it is 1 << 8 p.
_DOT_PLACE = np.uint64(0x0807060504030201)
# _LAST_BYTES[n] keeps a word's last n bytes; _AFTER_DOT[j] keeps the bytes
# after a dot whose j is as in `_decimal_words`, or all without a dot.
_LAST_BYTES = np.array([(1 << 64) - (1 << (64 - 8 * n)) for n in range(9)], dtype=np.uint64)
_AFTER_DOT = np.concatenate(([_LAST_BYTES[8]], _LAST_BYTES[:8]))
_POWERS = np.array([1.0] + [10.0**k for k in range(8)])


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
    grammar. Positions index the bytes ``a``: the block after 8 zero bytes,
    which separate tokens like spaces and let every word of `_digit_words`
    start inside ``a``. Indices and numbers are read eight bytes at a time,
    as the module docstring says. Every temporary is as long as the block's
    bytes or tokens.
    """
    if block.translate(None, _TEXT):
        return None
    a = np.frombuffer(bytes(8) + block, dtype=np.uint8)
    sep = np.empty(a.shape[0] + 1, dtype=bool)  # sep[i + 1]: a[i] separates tokens
    sep[0] = True
    np.less_equal(a, 32, out=sep[1:])  # space, tab, LF or pad: no other byte this low is left
    edges = np.flatnonzero(sep[1:] != sep[:-1])
    del sep
    starts, ends = edges[0::2], edges[1::2]  # token t is a[starts[t]:ends[t]]
    newline = np.flatnonzero(a == 10)
    label = np.zeros(starts.shape[0], dtype=bool)  # a line's first token
    label[:1] = True
    first = np.searchsorted(starts, newline)
    label[first[first < starts.shape[0]]] = True
    del first
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
    # the last 8 digits in one word; longer indices add digits one at a time
    index = _digit_words(a, colon, width)
    if not _eight_digits(index).all():
        return None
    index = index.view(np.int64)
    for k in range(8, width.max(initial=0)):
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
    del width
    if not ((index >= 1) & (index <= MAX_INDEX)).all():
        return None
    after_label = label[:-1][feature[1:]]  # a row's first feature
    if not (after_label[1:] | (index[1:] > index[:-1])).all():
        return None
    del after_label
    starts[feature] = colon + 1  # now the label, or the value after a feature's colon
    del colon
    numbers = _to_float(a, starts, ends)
    if numbers is None or not np.isfinite(numbers).all():
        return None
    row_nnz = np.diff(np.append(np.flatnonzero(label), label.shape[0])) - 1
    largest = int(index.max(initial=0))
    index -= 1
    return (numbers[label], row_nnz, index.astype(np.int32), numbers[feature], largest,
            newline.shape[0])


def _digit_words(a, end, size):
    """The 8 bytes of ``a`` before each position ``end``, as little-endian
    words, so a word's lowest byte is its first in the text, with each byte
    XOR ``0``: a digit byte holds the digit's value. Each word keeps its
    last ``size`` bytes (all 8 if ``size`` exceeds 8); its other bytes are
    zero, which reads as the digit 0."""
    # indexed, not taken: take would copy the 8-fold window view first
    words = np.ndarray((a.shape[0] - 7,), dtype="<u8", buffer=a, strides=(1,))[end - 8]
    words = words.astype(np.uint64, copy=False)  # a copy on big-endian hosts only
    words ^= _ZEROS
    words &= _LAST_BYTES.take(size, mode="clip")
    return words


def _eight_digits(words):
    """Which words of `_digit_words` hold 8 digits; each such word is
    replaced in place by the 8 digits' value, and any other by garbage.

    Every byte is below 0x80, so none carries into the next when 0x76 is
    added, and its top bit is then set exactly when the byte exceeds 9. The
    three multiply-and-shift steps that combine the digits are those of
    Lemire, "Number Parsing at a Gigabyte per Second" (2021).
    """
    test = words + _BIG_DIGITS
    test &= _HIGH_BITS
    ok = test == 0
    del test
    words *= _PAIRS
    words >>= 8
    words &= _PAIR_MASK
    words *= _FOURS
    words >>= 16
    words &= _FOUR_MASK
    words *= _EIGHTS
    words >>= 32
    return ok


def _to_float(a, start, end):
    """float64 of the fields ``a[start:end]``, or None if one is not a
    decimal number.

    A field of at most 8 bytes of the form ``[+-]digits[.digits]`` is read
    by `_decimal_words`. Every other field, such as one of 9 bytes or more,
    one with an exponent or one that is malformed, is handed to
    `_string_floats`, which has numpy convert its bytes.
    """
    out, exact = _decimal_words(a, start, end)
    rest = np.flatnonzero(~exact)
    if rest.shape[0]:
        numbers = _string_floats(a, start[rest], end[rest])
        if numbers is None:
            return None
        out[rest] = numbers
    return out


def _decimal_words(a, start, end):
    """The values of the fields ``a[start:end]`` read as words, and which
    of them are exact: those of at most 8 bytes with an optional sign, at
    least one digit and at most one dot.

    The sign byte and the bytes before the field read as the digit 0, and
    the dot's place is closed by moving the bytes before it up one byte, so
    the word holds the digits right-aligned. With k digits after the dot,
    the value is the digits' integer divided by 10**k. Both are below
    2**53, so they are exact doubles and the one division rounds correctly:
    the value equals numpy's conversion of the field's bytes bit for bit,
    ``-0`` included.
    """
    length = end - start
    lead = a[start]
    negative = lead == 45
    short = length <= 8
    size = length - (negative | (lead == 43))  # the field's bytes but a sign
    del length, lead
    words = _digit_words(a, end, size)
    # words ^ _DOT_DIGITS is zero exactly in the bytes that hold a dot: 0x01 there
    dot = words ^ _DOT_DIGITS
    dot += _LOW_SEVEN_BITS
    dot >>= 7
    dot &= _ONES
    dot ^= _ONES
    # j = 8 - p for one dot in byte p, so k = j - 1 digits follow it; 0
    # without a dot. With more dots j is the sum of theirs, at most 36, and
    # a dot stays in the word whichever byte j names, so the digit test
    # fails.
    dot *= _DOT_PLACE
    dot >>= 56
    j = dot.view(np.int64)
    exact = size > (j != 0)  # a digit besides the dot
    exact &= short
    del size, short
    shifted = words << 8
    words ^= shifted
    words &= _AFTER_DOT.take(j, mode="clip")
    words ^= shifted
    del shifted
    exact &= _eight_digits(words)
    values = words.astype(np.float64)
    del words
    values /= _POWERS.take(j, mode="clip")
    np.negative(values, out=values, where=negative)
    return values, exact


def _string_floats(a, start, end):
    """float64 of the fields ``a[start:end]``, or None if one is not a
    decimal number: numpy's conversion of a list of the fields' bytes."""
    text = a.tobytes()
    try:
        return np.array([text[i:j] for i, j in zip(start.tolist(), end.tolist())],
                        dtype=np.float64)
    except ValueError:
        return None


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
