import gzip
import io
import math
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import synthetic_svm_text
from dgfm import (
    Partition,
    load_libsvm,
    normalize_rows,
    parse_libsvm,
    partition,
    subset,
    to_libsvm,
)
from dgfm.data import (
    BLOCK_BYTES,
    MAX_INDEX,
    _blocks,
    _digit_words,
    _eight_digits,
    _parse_block,
)
from dgfm.errors import InvalidParameter, InvalidPartition, ParseError


class TestParse:
    def test_basic_line(self):
        ds = parse_libsvm("+1 1:0.5 3:-2\n")
        assert ds.n == 1 and ds.d >= 3
        assert ds.labels[0] == 1.0
        idx, val = ds.row(0)
        assert list(idx) == [0, 2]
        assert list(val) == [0.5, -2.0]

    def test_label_normalization(self):
        ds = parse_libsvm("0 2:1\n1 1:1\n")
        assert list(ds.labels) == [-1.0, 1.0]
        ds = parse_libsvm("1 1:1\n2 1:1\n")
        assert list(ds.labels) == [-1.0, 1.0]
        ds = parse_libsvm("-1 1:1\n+1 1:1\n")
        assert list(ds.labels) == [-1.0, 1.0]
        # one class loads only when written -1 or +1; any two values map
        assert list(parse_libsvm("+1 1:1\n+1 2:1\n").labels) == [1.0, 1.0]
        assert list(parse_libsvm("-1 1:1\n").labels) == [-1.0]
        assert list(parse_libsvm("7 1:1\n3 1:1\n").labels) == [1.0, -1.0]

    def test_blank_lines_and_whitespace(self):
        ds = parse_libsvm("+1 1:1\n\n  \n-1 2:1   \n")
        assert ds.n == 2

    def test_malformed_value(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("1 1:abc\n")
        assert err.value.line == 1

    def test_missing_colon(self):
        with pytest.raises(ParseError) as err:
            parse_libsvm("1 1:1\n-1 2\n")
        assert err.value.line == 2

    def test_non_increasing_index(self):
        with pytest.raises(ParseError):
            parse_libsvm("1 3:1 3:2\n")
        with pytest.raises(ParseError):
            parse_libsvm("1 3:1 2:2\n")

    def test_bad_label_set(self):
        for text in ("1 1:1\n2 1:1\n3 1:1\n", "0 1:1\n0 2:1\n", "2 1:1\n", "3 1:1\n",
                     "0 1:1\n1 1:1\n2 1:1\n"):
            with pytest.raises(ParseError, match="a single class must be written -1 or \\+1"):
                parse_libsvm(text)

    def test_roundtrip(self, svm_dataset):
        again = parse_libsvm(to_libsvm(svm_dataset))
        assert again.n == svm_dataset.n and again.d == svm_dataset.d
        assert np.array_equal(again.labels, svm_dataset.labels)
        for i in range(0, svm_dataset.n, 97):
            ia, va = svm_dataset.row(i)
            ib, vb = again.row(i)
            assert np.array_equal(ia, ib)
            assert np.array_equal(va, vb)


class TestNormalize:
    def test_three_four_five(self):
        ds = normalize_rows(parse_libsvm("1 1:3 2:4\n"))
        _, val = ds.row(0)
        assert np.allclose(val, [0.6, 0.8], atol=1e-15)

    def test_zero_row_untouched(self):
        ds = normalize_rows(parse_libsvm("1 3:0\n-1 1:1\n"))
        _, val = ds.row(0)
        assert np.allclose(val, [0.0])

    def test_idempotent(self, svm_dataset):
        once = svm_dataset  # fixture is already normalized
        twice = normalize_rows(once)
        assert np.max(np.abs(twice.features - once.features)) <= 1e-15

    def test_labels_untouched(self):
        raw = parse_libsvm("1 1:3\n0 1:4\n")
        assert np.array_equal(normalize_rows(raw).labels, raw.labels)


class TestPartition:
    def test_even_split(self):
        part = partition(10, 2, seed=0)
        assert part.sizes == [5, 5]
        assert set(np.concatenate(part.assignment)) == set(range(10))

    def test_uneven_split(self):
        part = partition(7, 3, seed=0)
        assert sorted(part.sizes, reverse=True) == [3, 2, 2]
        assert max(part.sizes) - min(part.sizes) <= 1

    def test_deterministic(self):
        a = partition(100, 7, seed=42)
        b = partition(100, 7, seed=42)
        assert all(np.array_equal(x, y) for x, y in zip(a.assignment, b.assignment))
        c = partition(100, 7, seed=43)
        assert any(not np.array_equal(x, y) for x, y in zip(a.assignment, c.assignment))

    def test_single_agent_keeps_natural_order(self):
        part = partition(9, 1, seed=5)
        assert np.array_equal(part.assignment[0], np.arange(9))

    def test_too_few_samples(self):
        with pytest.raises(InvalidPartition):
            partition(2, 3, seed=0)
        with pytest.raises(InvalidPartition):
            partition(5, 0, seed=0)

    @pytest.mark.parametrize("m", [1, 2])
    def test_negative_seed_is_rejected(self, m):
        # one agent keeps the natural order and never shuffles, but the seed is still checked
        with pytest.raises(InvalidParameter, match="seed must be >= 0, got -1"):
            partition(10, m, seed=-1)

    def test_empty_shard_is_rejected(self):
        with pytest.raises(InvalidPartition, match="agent 1 has no samples"):
            Partition(assignment=[np.arange(3), np.array([], dtype=int)], n=3)

    def test_accepts_dataset(self, svm_dataset):
        part = partition(svm_dataset, 8, seed=1)
        assert part.n == svm_dataset.n and part.m == 8


class TestSubsetAndGzip:
    def test_first_n(self, svm_dataset):
        sub = subset(svm_dataset, 100)
        assert sub.n == 100
        assert np.array_equal(sub.labels, svm_dataset.labels[:100])

    def test_seeded_sample(self, svm_dataset):
        a = subset(svm_dataset, 100, seed=3)
        b = subset(svm_dataset, 100, seed=3)
        assert np.array_equal(a.labels, b.labels)
        assert a.n == 100

    def test_noop_when_larger(self, svm_dataset):
        assert subset(svm_dataset, 10**6) is svm_dataset

    @pytest.mark.parametrize("n", [100, 10**6], ids=["sample", "whole"])
    def test_negative_seed_is_rejected(self, svm_dataset, n):
        with pytest.raises(InvalidParameter, match="subset seed must be >= 0, got -1"):
            subset(svm_dataset, n, seed=-1)

    @pytest.mark.parametrize("n", [0, -1])
    def test_size_below_one_is_rejected(self, svm_dataset, n):
        with pytest.raises(InvalidParameter, match=f"subset size must be >= 1, got {n}"):
            subset(svm_dataset, n)

    def test_gzip_loading(self, tmp_path):
        text = "+1 1:0.5 3:-2\n-1 2:1\n"
        plain = tmp_path / "tiny.libsvm"
        plain.write_text(text)
        zipped = tmp_path / "tiny.libsvm.gz"
        with gzip.open(zipped, "wt") as fh:
            fh.write(text)
        a = load_libsvm(plain)
        b = load_libsvm(zipped)
        assert a.n == b.n == 2
        assert np.array_equal(a.labels, b.labels)
        assert (a.features != b.features).nnz == 0


def reference_parse(text):
    """The former per-token parser, kept as the oracle of the bulk one."""
    raw_labels = []
    indptr = [0]
    indices = []
    data = []
    d = 0
    for lineno, line in enumerate(io.StringIO(text), start=1):
        line = line.strip()
        if not line:
            continue
        fields = line.split()
        try:
            raw_labels.append(float(fields[0]))
        except ValueError:
            raise ParseError(f"label {fields[0]!r} is not numeric", line=lineno) from None
        prev = -1
        for field in fields[1:]:
            idx_str, sep, val_str = field.partition(":")
            if not sep:
                raise ParseError(f"feature {field!r} is missing ':'", line=lineno)
            try:
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise ParseError(f"feature {field!r} is not numeric", line=lineno) from None
            if idx < 1:
                raise ParseError(f"feature index {idx} must be >= 1", line=lineno)
            idx -= 1
            if idx <= prev:
                raise ParseError(
                    f"feature index {idx + 1} not strictly increasing", line=lineno
                )
            prev = idx
            indices.append(idx)
            data.append(val)
        indptr.append(len(indices))
        d = max(d, prev + 1)
    values = sorted(set(raw_labels))
    if set(values) <= {-1.0, 1.0}:
        labels = np.asarray(raw_labels, dtype=float)
    elif len(values) != 2:
        raise ParseError(f"cannot map labels {values} to -1/+1: need exactly two classes,"
                         " and a single class must be written -1 or +1")
    else:
        labels = np.where(np.asarray(raw_labels) == values[0], -1.0, 1.0)
    features = sp.csr_matrix(
        (np.asarray(data), np.asarray(indices, dtype=np.int32), np.asarray(indptr)),
        shape=(len(raw_labels), d),
    )
    return features, labels


def outcome(text):
    """(features, labels) of the bulk parser, or its ParseError's line and message."""
    try:
        ds = parse_libsvm(text)
    except ParseError as exc:
        return exc.line, str(exc)
    return ds.features, ds.labels


def reference_outcome(text):
    try:
        return reference_parse(text)
    except ParseError as exc:
        return exc.line, str(exc)


def assert_same_outcome(got, want):
    if isinstance(want[0], sp.csr_matrix):
        assert isinstance(got[0], sp.csr_matrix), got
        for name in ("data", "indices", "indptr"):
            a, b = getattr(got[0], name), getattr(want[0], name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), name
        assert got[0].shape == want[0].shape
        assert got[1].dtype == want[1].dtype and got[1].tobytes() == want[1].tobytes()
    else:
        assert got == want


def filler(label, min_bytes):
    """Valid lines of at least ``min_bytes`` bytes in all."""
    line = f"{label} 3:1 17:0.5 250:-2e-1\n"
    return line * (min_bytes // len(line) + 1)


# Label forms of one class set each: +-1 kept, two classes mapped, more refused.
LABEL_SETS = [("-1", "+1", "1", "-1.0", "1e0", "+1.", "-.1e1", "01"), ("0", "1", "0.0", "+1"),
              ("1", "2", "2.0"), ("3.5", "-2e1", "7")]
FINITE = st.floats(-1e300, 1e300)


@st.composite
def word_sized_decimals(draw):
    """Decimals of exactly 8 or 9 bytes, the longest a word holds and one
    more: an optional sign, then digits with a dot in any place or none."""
    size = draw(st.sampled_from([8, 9]))
    sign = draw(st.sampled_from(["", "-", "+"]))
    body = list(draw(st.text("0123456789", min_size=size - len(sign), max_size=size - len(sign))))
    dot = draw(st.integers(-1, len(body) - 1))
    if dot >= 0:
        body[dot] = "."
    return sign + "".join(body)


DECIMALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    FINITE.map(lambda v: f"{v:.6g}"),
    FINITE.map(lambda v: f"{v:+.3E}"),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from([".5", "5.", "-.5", "+0", "-0", "-0.0", "007", "1e5", "1E+05", "2e-3",
                     "+.25e1"]),
    word_sized_decimals(),
    st.integers(-10**8 + 1, 10**8 - 1).filter(lambda v: abs(v) >= 10**6).map(str),
    st.sampled_from(["-0000000", "+0000000", "-0.00000", "+.000000", "1234567.", ".1234567",
                     "-1234567", "+1234567", "99999999", "-9999999.", "+.9999999"]),
)
SPACE = st.sampled_from([" ", "\t", "  ", " \t", "\t\t "])
EDGE = st.sampled_from(["", " ", "\t", " \t "])


@st.composite
def libsvm_lines(draw, labels):
    kind = draw(st.sampled_from(["features", "features", "features", "label", "blank"]))
    if kind == "blank":
        body = draw(EDGE)
    else:
        index = sorted(draw(st.sets(st.integers(1, 10**6), max_size=8 if kind == "features" else 0)))
        fields = [draw(st.sampled_from(labels))]
        fields += [f"{i:0{draw(st.integers(0, 12))}d}:{draw(DECIMALS)}" for i in index]
        body = draw(EDGE) + "".join(f + draw(SPACE) for f in fields[:-1]) + fields[-1] + draw(EDGE)
    return body + draw(st.sampled_from(["\n", "\r\n"]))


@st.composite
def libsvm_texts(draw):
    """Valid LIBSVM text; in half the draws, its drawn lines follow filler that
    ends up to 400 bytes before the first block's end, so they straddle it."""
    labels = draw(st.sampled_from(LABEL_SETS))
    text = "".join(draw(st.lists(libsvm_lines(labels), max_size=30)))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.booleans()):
        lead = filler(labels[0], BLOCK_BYTES - 400)
        text = lead[:lead.rfind("\n", 0, BLOCK_BYTES - draw(st.integers(0, 400))) + 1] + text
    return text


class TestBulkParse:
    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(text=libsvm_texts())
    def test_equals_the_per_token_parser(self, text):
        assert_same_outcome(outcome(text), reference_outcome(text))

    def test_equals_the_per_token_parser_on_the_test_corpus(self):
        text = synthetic_svm_text()
        assert_same_outcome(outcome(text), reference_outcome(text))

    # One line of each kind the per-token parser rejects.
    REJECTED = {"label not numeric": "x 1:1", "label with a colon": "1:1 2:1",
                "missing colon": "1 1:1 2", "value not numeric": "1 1:abc",
                "index not numeric": "1 1.5:1", "empty index": "1 :1", "empty value": "1 1:",
                "two colons": "1 1:2:3", "index below one": "1 0:1", "negative index": "1 -3:1",
                "repeated index": "1 3:1 3:2", "decreasing index": "1 3:1 2:2",
                "non-ASCII letter": "1 1:\u00e9", "two dots": "1 1:1.2.3", "two minus signs": "1 1:--1",
                "inner minus sign": "1 1:1-2", "two signs": "1 1:+-1", "dot alone": "1 1:.",
                "sign alone": "1 1:-"}

    @pytest.mark.parametrize("bad", REJECTED.values(), ids=REJECTED.keys())
    def test_bad_line_in_the_second_block_is_named_alike(self, bad):
        lead = filler("1", BLOCK_BYTES)
        text = lead + "-1 2:1\n" + bad + "\r\n" + "-1 4:1\n" * 3
        want = reference_outcome(text)
        assert want[0] == lead.count("\n") + 2
        assert outcome(text) == want

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(value=st.text("0123456789+-.eE", min_size=1, max_size=10))
    def test_any_short_value_field_reads_as_the_per_token_parser_reads_it(self, value):
        try:
            finite = math.isfinite(float(value))
        except ValueError:
            finite = True  # refused by both
        assume(finite)  # the per-token parser took inf; the grammar refuses it
        text = filler("1", 100) + f"-1 1:{value} 2:1\n"
        assert_same_outcome(outcome(text), reference_outcome(text))

    def test_a_word_reads_the_text_little_endian(self):
        text = b" 12345678:9\n"
        a = np.frombuffer(bytes(8) + text, dtype=np.uint8)
        colon = np.array([8 + text.index(b":")])
        words = _digit_words(a, colon, np.array([8]))
        digits = bytes(b ^ 0x30 for b in b"12345678")
        assert words.tolist() == [int.from_bytes(digits, "little")]
        assert _eight_digits(words).tolist() == [True]
        assert words.tolist() == [12345678]

    # One line of each kind the grammar refuses and the per-token parser did not
    # (it took them, or failed on an index past int32 with an OverflowError).
    NEWLY_REJECTED = {"nan label": "nan 1:1", "inf label": "-inf 1:1", "nan value": "1 1:nan",
                      "inf value": "1 1:inf", "overflowing value": "1 1:1e999",
                      "underscore": "1 1:1_0", "signed index": "1 +3:1",
                      "non-ASCII digit": "1 \u0661:1", "vertical tab": "1 1:1\x0b2:1",
                      "lone carriage return": "1 1:1\r2:1", "no-break space": "1 1:1\xa0",
                      "index past int32": f"1 {MAX_INDEX + 1}:1"}

    @pytest.mark.parametrize("bad", NEWLY_REJECTED.values(), ids=NEWLY_REJECTED.keys())
    def test_newly_rejected_line_is_named(self, bad):
        lead = filler("1", BLOCK_BYTES)
        with pytest.raises(ParseError) as err:
            parse_libsvm(lead + "-1 2:1\n" + bad + "\n" + "-1 4:1\n")
        assert err.value.line == lead.count("\n") + 2

    @pytest.mark.parametrize("text, line", [("nan 1:1\n1 2:1\n", 1), ("1 1:1\n1 1:nan\n", 2),
                                            ("1 1:inf\n", 1), ("1e999 2:1\n", 1)])
    def test_non_finite_numbers_are_rejected(self, text, line):
        with pytest.raises(ParseError, match="is not finite") as err:
            parse_libsvm(text)
        assert err.value.line == line

    def test_bytes_that_are_not_text_name_their_line(self):
        with pytest.raises(ParseError, match="byte 0xff is not text") as err:
            parse_libsvm(b"1 1:1\n-1 2:1\n1 3:\xff\n")
        assert err.value.line == 3

    def test_every_source_parses_alike(self, tmp_path):
        text = "+1 1:0.5 3:-2\r\n\n-1 2:1"
        path = tmp_path / "tiny.libsvm"
        path.write_bytes(text.encode())
        sources = [text, text.encode(), io.StringIO(text), io.BytesIO(text.encode())]
        want = reference_parse(text)
        for got in [parse_libsvm(source) for source in sources] + [load_libsvm(path)]:
            assert_same_outcome((got.features, got.labels), want)

    def test_peak_memory_is_bounded_by_the_output(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = []
        for _ in range(5000):
            cols = np.sort(rng.choice(2000, size=20, replace=False)) + 1
            pairs = " ".join(f"{j}:{v:.6g}" for j, v in zip(cols, rng.random(20)))
            lines.append(f"{rng.choice(['-1', '+1'])} {pairs}\n")
        path = tmp_path / "wide.libsvm"
        path.write_text("".join(lines))
        assert path.stat().st_size >= 4 * BLOCK_BYTES
        tracemalloc.start()
        try:
            ds = load_libsvm(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        csr = ds.features
        kept = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes + ds.labels.nbytes
        assert peak <= 3 * kept

    # A multiple of the block's bytes above the parser's peak on either block:
    # a9a-shaped blocks peaked near 20 times their bytes when every number
    # went through numpy's string conversion, and 8-byte decimals near 10.
    BLOCK_PEAK = 30

    # every value of the last two kinds goes to numpy's conversion of its bytes
    FORMATS = {"8-byte decimals": "{:.6f}", "9-byte decimals": "{:.7f}",
               "exponent forms": "{:.6e}"}

    @pytest.mark.parametrize("kind", ["a9a-shaped", "8-byte decimals", "9-byte decimals",
                                      "exponent forms"])
    def test_peak_memory_of_one_block_is_bounded_by_its_bytes(self, kind):
        if kind == "a9a-shaped":
            text = synthetic_svm_text()
        else:
            rng, value = np.random.default_rng(0), self.FORMATS[kind].format
            text = "".join(
                "+1 " + " ".join(f"{j}:{value(v)}" for j, v in enumerate(rng.random(12), 1))
                + "\n" for _ in range(1000))
        block = next(_blocks(io.BytesIO(text.encode()).read))
        assert len(block) > BLOCK_BYTES - 200
        _parse_block(block)
        tracemalloc.start()
        try:
            parsed = _parse_block(block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert parsed is not None
        assert peak <= self.BLOCK_PEAK * len(block)
