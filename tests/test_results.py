"""The committed study outputs under results/ replay from their manifests.

Each results/*/manifest.json records the argv that wrote its directory.
Re-running that argv into a scratch directory must succeed and reproduce
the same files: same headers and keys, equal integers and text, and floats
within rtol 1e-9 plus an absolute slack of 1e-9 times the largest |value|
of the same column (CSV) or key (JSON). Bytes are not compared, because
other numpy and scipy releases may round the last digits differently.
"""

import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

from gouest.cli import main

RESULTS = Path(__file__).resolve().parent.parent / "results"
MANIFESTS = sorted(RESULTS.glob("*/manifest.json"))
# per-run fields of a manifest: when it ran and where it wrote
_RUN_FIELDS = ("argv", "started_at", "finished_at", "outputs")


def _replay_argv(manifest: dict, out: Path) -> list:
    argv = list(manifest["argv"])
    argv[argv.index("--out") + 1] = str(out)
    return argv


def _json_leaves(value, path=()):
    """(path, leaf) pairs; a path holds object keys (str) and list indices (int)."""
    if isinstance(value, dict):
        for key, item in value.items():
            yield from _json_leaves(item, path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _json_leaves(item, path + (i,))
    else:
        yield path, value


def _group(path) -> tuple:
    """The keys of a path without its list indices: the numbers of one list
    share their key's scale."""
    return tuple(p for p in path if isinstance(p, str))


def _assert_close(name, got, want):
    want = np.asarray(want, dtype=float)
    scale = float(np.max(np.abs(want), initial=0.0))
    np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-9 * scale, err_msg=name)


def _compare_json(name, got, want):
    got_leaves, want_leaves = dict(_json_leaves(got)), dict(_json_leaves(want))
    assert got_leaves.keys() == want_leaves.keys(), name
    floats = {}
    for path, value in want_leaves.items():
        if isinstance(value, float):
            floats.setdefault(_group(path), []).append(path)
        else:
            assert got_leaves[path] == value, f"{name}: {path}"
    for group, paths in floats.items():
        _assert_close(f"{name}: {group}", [got_leaves[p] for p in paths],
                      [want_leaves[p] for p in paths])


def _compare_csv(name, got_path, want_path):
    with open(got_path, newline="") as fh:
        got = list(csv.reader(fh))
    with open(want_path, newline="") as fh:
        want = list(csv.reader(fh))
    assert got[0] == want[0], name
    assert len(got) == len(want), name
    for j, column in enumerate(want[0]):
        got_col, want_col = [row[j] for row in got[1:]], [row[j] for row in want[1:]]
        if all(re.fullmatch(r"-?\d+", v) for v in want_col):
            assert got_col == want_col, f"{name}: {column}"
        else:
            _assert_close(f"{name}: {column}", np.array(got_col, dtype=float),
                          np.array(want_col, dtype=float))


def test_results_are_committed():
    assert {p.parent.name for p in MANIFESTS} == {
        "density_recovery_study", "laplace_curve_study", "rate_study"}


@pytest.mark.parametrize("manifest_path", MANIFESTS, ids=lambda p: p.parent.name)
def test_committed_results_replay(tmp_path, manifest_path):
    committed = manifest_path.parent
    manifest = json.loads(manifest_path.read_text())
    out = tmp_path / committed.name
    assert main(_replay_argv(manifest, out)) == 0

    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in committed.iterdir())
    for path in sorted(committed.iterdir()):
        name = f"{committed.name}/{path.name}"
        if path.suffix == ".csv":
            _compare_csv(name, out / path.name, path)
            continue
        got, want = (json.loads(p.read_text()) for p in (out / path.name, path))
        if path.name == "manifest.json":
            for field in _RUN_FIELDS:
                del got[field], want[field]
        _compare_json(name, got, want)
