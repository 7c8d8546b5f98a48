"""Seeded LIBSVM corpora for the benchmark workloads.

Both generators return LIBSVM text; the benchmark writes it to a file and
times the package's own ingestion of that file. The same seed always gives
the same text. The benchmark makes the file in a child process,

    python3 -m perfbench.corpus KIND SEED PATH

so that the generator's memory never counts in the workload's peak RSS.
"""

import sys

import numpy as np

# Label flip rate of both corpora.
FLIP = 0.05
# The tests' a9a-shaped corpus.
A9A_N, A9A_D, A9A_NNZ = 2000, 123, 14
# The sparse corpus: rows, columns, nonzeros per row (1% density), share of
# columns in the label hyperplane's support, share of positive rows (a9a's
# class ratio), and rows per block of the column draw.
SPARSE_N, SPARSE_D, SPARSE_NNZ = 20_000, 2000, 20
SPARSE_SUPPORT, SPARSE_POSITIVE_SHARE, SPARSE_BLOCK = 0.1, 0.24, 250


def a9a_like(seed):
    """The tests' a9a-shaped corpus: binary features, 14 active per row,
    labels from a dense random hyperplane with a small flip rate."""
    n, d, nnz = A9A_N, A9A_D, A9A_NNZ
    rng = np.random.default_rng(seed)
    wstar = rng.standard_normal(d)
    lines = []
    for _ in range(n):
        idx = np.sort(rng.choice(d, size=nnz, replace=False))
        label = 1 if wstar[idx].sum() > 0 else -1
        if rng.uniform() < FLIP:
            label = -label
        pairs = " ".join(f"{j + 1}:1" for j in idx)
        lines.append(f"{label} {pairs}")
    return "\n".join(lines) + "\n"


def sparse_text_like(seed):
    """High-dimensional sparse corpus shaped like tf-idf text data.

    Every row has ``SPARSE_NNZ`` distinct columns, drawn without
    replacement with Zipf(1) column popularity, and positive real values.
    Labels come from a hyperplane supported on a ``SPARSE_SUPPORT`` share
    of the columns, offset so that ``SPARSE_POSITIVE_SHARE`` of the rows
    are positive, and then ``FLIP`` of them are flipped.

    Skewed columns and unequal classes are what real sparse data have, and
    they matter here: with isotropic columns and balanced classes the
    gradient of the hinge loss at x = 0 has norm about 1/sqrt(d), and a
    zeroth-order method cannot move the loss outside its own noise within
    a budget the benchmark can afford.
    """
    n, d, nnz, block = SPARSE_N, SPARSE_D, SPARSE_NNZ, SPARSE_BLOCK
    rng = np.random.default_rng(seed)
    wstar = np.zeros(d)
    active = rng.choice(d, size=int(SPARSE_SUPPORT * d), replace=False)
    wstar[active] = rng.standard_normal(active.shape[0])
    log_pop = -np.log(np.arange(d) + 10.0)
    cols = np.empty((n, nnz), dtype=np.int64)
    for lo in range(0, n, block):
        rows = min(block, n - lo)
        # Gumbel top-k: a weighted draw of nnz columns without replacement.
        keys = log_pop - np.log(-np.log(rng.random((rows, d))))
        cols[lo:lo + rows] = np.argpartition(-keys, nnz, axis=1)[:, :nnz]
    cols.sort(axis=1)
    vals = rng.exponential(1.0, size=(n, nnz))
    score = (vals * wstar[cols]).sum(axis=1)
    labels = np.where(score > np.quantile(score, 1.0 - SPARSE_POSITIVE_SHARE), 1, -1)
    labels[rng.random(n) < FLIP] *= -1
    lines = []
    for label, row_cols, row_vals in zip(labels.tolist(), (cols + 1).tolist(), vals.tolist()):
        pairs = " ".join(f"{j}:{v:.6g}" for j, v in zip(row_cols, row_vals))
        lines.append(f"{label} {pairs}")
    return "\n".join(lines) + "\n"


GENERATORS = {"a9a": a9a_like, "sparse-text": sparse_text_like}

if __name__ == "__main__":
    kind, seed, path = sys.argv[1:]
    with open(path, "w") as fh:
        fh.write(GENERATORS[kind](int(seed)))
