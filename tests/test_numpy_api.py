"""The library runs on numpy 1.24 as well as 2.x.

pyproject.toml allows numpy >= 1.24, and CI declares a Python 3.10 /
numpy 1.24 entry that runs the library, the demos, the tests and the
benchmark smoke step.  These names exist only in numpy 2, or changed
meaning there, so no Python file under ``src/hedgekit``, ``demos``,
``tests`` or ``bench`` may use them; this file, which spells them out,
is left out.
"""
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCANNED = ("src/hedgekit", "demos", "tests", "bench")

NUMPY2_ONLY = {
    "np.concat": r"\bnp\.concat\(",
    "vecdot": r"\bvecdot\b",
    "matrix_transpose": r"\bmatrix_transpose\b",
    "unique_all/counts/inverse/values": r"\bunique_(all|counts|inverse|values)\b",
    ".mT": r"\.mT\b",
    "isdtype": r"\bisdtype\b",
    "copy=": r"\bcopy=",
}


def test_sources_use_no_numpy2_only_api():
    paths = sorted(p for d in SCANNED for p in (ROOT / d).rglob("*.py"))
    assert ROOT / "src" / "hedgekit" / "sdp.py" in paths
    hits = []
    for path in paths:
        if path == pathlib.Path(__file__).resolve():
            continue
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            for name, pattern in NUMPY2_ONLY.items():
                if re.search(pattern, line):
                    hits.append(f"{path.relative_to(ROOT)}:{number}: {name}")
    assert not hits, "numpy-2-only API:\n" + "\n".join(hits)


def test_the_scan_sees_each_pattern():
    samples = {
        "np.concat": "np.concat([a, b])",
        "vecdot": "np.vecdot(a, b)",
        "matrix_transpose": "np.matrix_transpose(a)",
        "unique_all/counts/inverse/values": "np.unique_inverse(a)",
        ".mT": "a.mT @ b",
        "isdtype": "np.isdtype(a.dtype, 'real floating')",
        "copy=": "np.asarray(a, copy=False)",
    }
    for name, sample in samples.items():
        assert re.search(NUMPY2_ONLY[name], sample), name
    assert not re.search(NUMPY2_ONLY["np.concat"], "np.concatenate([a, b])")
