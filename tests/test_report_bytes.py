"""The bytes of 2x2 reports, pinned by one digest.

``run()`` is called on a seeded set of binary channels, given by ``--a`` and
``--c`` and by channel file, under ``auto``, ``binary`` and
``blahut-arimoto``, in json and in text.  One SHA-256 over every exit code,
stdout and stderr must equal ``DIGEST``, so a change that means to keep every
report as it is can show that it did.  A change that means to alter a report
recomputes the digest and says why it moved.

The reports print floats to 17 significant digits, and those bits come
through numpy's ``log2`` and the C library's ``log``, ``exp`` and
``expm1``.  The digest was taken on x86-64 Linux with glibc and numpy 2.4;
a math library that rounds these functions differently gives another one.
"""

import hashlib
import json
import random

from chancap.cli import run

DIGEST = "442f9d0945475166de7425f4ace3f2bfa37d68137edc070def5ac7f78d5d670f"

METHODS = ("auto", "binary", "blahut-arimoto")
FORMATS = ("json", "text")

#: (a, c) pairs on the edges of the closed form: a == c, noiseless and
#: Z-channel corners, one pair with its rows swapped, and two close rows.
EDGE_PAIRS = [
    (0.3, 0.3),
    (0.0, 0.0),
    (1.0, 1.0),
    (0.0, 1.0),
    (1.0, 0.0),
    (0.0, 0.7),
    (0.4, 1.0),
    (1.0, 0.25),
    (0.6, 0.0),
    (0.2, 0.9),
    (0.9, 0.2),
    (0.5674319950470281, 0.5674319950480301),
]

#: Channel files that no (a, c) pair spells: an entry of 1 + 1e-13, which
#: the check admits and the closed form clamps; rows off 1 by 1e-10, which
#: ingest renormalizes with a warning; a negative entry of rounding size.
FILE_MATRICES = [
    [[0.0, 1.0 + 1e-13], [0.3, 0.7]],
    [[1.0 + 1e-13, 0.0], [0.25, 0.75]],
    [[0.6, 0.4 + 1e-10], [0.2, 0.8]],
    [[-1e-16, 1.0], [0.5, 0.5]],
]

#: Extra flags: the default run, a log base other than 2, and a tolerance no
#: answer meets with a cap of 3 sweeps, which ends in a fallback or exit 4.
EXTRAS = [[], ["--base", "10"], ["--tol", "1e-300", "--max-iter", "3"]]


def _pairs():
    rng = random.Random(1955)
    return EDGE_PAIRS + [(rng.random(), rng.random()) for _ in range(16)]


def _sources(tmp_path):
    """argv prefixes, one per channel: flags for each pair, then a file for
    each pair with its rows in both orders, then FILE_MATRICES."""
    sources = [["--a", repr(a), "--c", repr(c)] for a, c in _pairs()]
    sources.append(["--a", "1.5", "--c", "0.5"])  # outside [0, 1]: exit 3
    matrices = [[[1.0 - a, a], [1.0 - c, c]] for a, c in _pairs()]
    matrices += [rows[::-1] for rows in matrices] + FILE_MATRICES
    for i, rows in enumerate(matrices):
        path = tmp_path / f"channel{i}.json"
        path.write_text(json.dumps({"matrix": rows}), encoding="utf-8")
        sources.append(["--matrix", str(path)])
    return sources


def test_binary_report_bytes_are_pinned(tmp_path, capsys):
    digest = hashlib.sha256()
    runs = 0
    for source in _sources(tmp_path):
        for extra in EXTRAS:
            for method in METHODS:
                for fmt in FORMATS:
                    code = run([*source, *extra, "--method", method, "--format", fmt])
                    out, err = capsys.readouterr()
                    digest.update(f"{code}\0{out}\0{err}\0".encode())
                    runs += 1
    assert runs == 89 * len(EXTRAS) * len(METHODS) * len(FORMATS)
    assert digest.hexdigest() == DIGEST
