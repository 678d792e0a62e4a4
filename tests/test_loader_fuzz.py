"""Arbitrary line bytes into every text-file reader: each call either loads
or raises a ValueError that starts with the path, and an error about one
line names that line's number.  Then the same contract for ``load_dataset``
over a saved bundle with one or two of its files damaged, and through the
``train`` command."""

import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import subgraph_infomax
from subgraph_infomax import data as data_module
from subgraph_infomax.cli import parse_kv_file
from subgraph_infomax.data import (
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    load_edge_file,
    load_embedding_file,
    load_split_file,
    load_subgraph_file,
    save_bundle,
)

from bundle_invariants import bundle_problem

READERS = {
    "edges": load_edge_file,
    "subgraphs": lambda path: load_subgraph_file(path, 5),
    "embeddings": lambda path: load_embedding_file(path, 2),
    "splits": lambda path: load_split_file(path, 2),
    "config": parse_kv_file,
}

# Fragments that reach past the first parse of each format, and (from "+1"
# on) fragments where numpy's number grammar and Python's differ: the edge
# and embedding readers parse with numpy, the subgraph and split readers
# read integers by the same grammar, and the config reader uses Python.
TOKENS = [
    b"0", b"1", b"7", b"-2", b"1.5", b"nan", b"inf", b"1e999", b"x", b"train", b"test",
    b"#", b"=", b",", b"\t", b" ", b"\r", b"\xff", b"\xc3\xa9", b"\xed\xa0\x80", b"\x00",
    b"+1", b"1_0", b"\xef\xbc\x91", b"\xc2\xa0", b"\x0c", b"Infinity", b"0x1",
]
line_bytes = st.one_of(
    st.binary(max_size=24),
    st.lists(st.sampled_from(TOKENS), max_size=8).map(b"".join),
)
file_bytes = st.lists(line_bytes, max_size=8).map(b"\n".join)


def _located_line(path, message):
    match = re.match(rf"{re.escape(str(path))}:(\d+): ", message)
    return int(match.group(1)) if match else None


@pytest.mark.parametrize("kind", sorted(READERS))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=file_bytes)
def test_reader_loads_or_raises_a_located_error(tmp_path, kind, data):
    read = READERS[kind]
    path = tmp_path / f"{kind}.txt"
    path.write_bytes(data)
    try:
        read(path)
    except ValueError as err:
        message = str(err)
        assert re.match(rf"{re.escape(str(path))}(:\d+)?: ", message), message
        lineno = _located_line(path, message)
        if lineno is not None:
            # The named line is the first bad one: the lines before it raise
            # no line error of their own.  Text mode splits lines as
            # bytes.splitlines does (\n, \r and \r\n).
            lines = data.splitlines(keepends=True)
            assert 1 <= lineno <= len(lines)
            path.write_bytes(b"".join(lines[: lineno - 1]))
            try:
                read(path)
            except ValueError as earlier:
                assert _located_line(path, str(earlier)) is None, str(earlier)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=file_bytes.filter(bytes.isascii), block_lines=st.sampled_from([1, 2, 4096]))
def test_bulk_parse_and_block_reader_agree(tmp_path, monkeypatch, data, block_lines):
    # One grammar: an ASCII file that one loadtxt pass parses and checks
    # gives the same array when read a block of lines at a time, and a file
    # that fails it fails the block reader too.
    monkeypatch.setattr(data_module, "_BLOCK_LINES", block_lines)
    path = tmp_path / "table.txt"
    path.write_bytes(data)
    for dtype, problem in (
        (np.int64, data_module._edge_problem), (np.float64, data_module._embedding_problem)
    ):
        try:
            bulk = data_module._loadtxt(path, dtype)
        except ValueError:
            bulk = None
        if bulk is not None and problem(bulk, None, bulk.shape[1]) is not None:
            bulk = None
        try:
            blocks = data_module._read_table_by_blocks(path, dtype, problem)
        except ValueError:
            assert bulk is None
        else:
            assert bulk is not None
            assert bulk.shape == blocks.shape and bulk.tobytes() == blocks.tobytes()


# A bundle of 16 nodes and 6 records, small enough that a damaged file
# often still loads.
TINY = SyntheticSpec(
    num_nodes=16, num_subgraphs=6, subgraph_size_min=3, subgraph_size_max=4,
    feature_dim=2, seed=4,
)
# A line naming an id one past what the other files hold: an edge to node
# 16, a record with node 16, a split for record 6, a 17th embedding row.
PAST = {
    "edges": b"3 16\n",
    "subgraphs": b"0\t2,16\n",
    "splits": b"6\ttrain\n",
    "embeddings": b"0.5 0.5\n",
}
MUTATIONS = ("empty", "truncate", "duplicate", "drop_last", "past", "non_utf8")


def mutate(kind: str, data: bytes, mutation: str, where: int) -> bytes:
    lines = data.splitlines(keepends=True)
    if mutation == "empty":
        return b""
    if mutation == "truncate":
        return data[: where % (len(data) + 1)]
    if mutation == "duplicate" and lines:
        i = where % len(lines)
        return b"".join(lines[: i + 1] + lines[i:])
    if mutation == "drop_last":  # for embeddings, a missing last node
        return b"".join(lines[:-1])
    if mutation == "past":
        return data + PAST[kind]
    if mutation == "non_utf8":
        at = where % (len(data) + 1)
        return data[:at] + b"\xff" + data[at:]
    return data


@pytest.fixture(scope="module")
def saved_tiny(tmp_path_factory):
    paths = save_bundle(generate_synthetic(TINY), tmp_path_factory.mktemp("tiny"))
    return {kind: Path(path).read_bytes() for kind, path in paths.items()}


def _write_bundle(out: Path, files: dict) -> dict:
    paths = {kind: out / f"{kind}.txt" for kind in files}
    for kind, path in paths.items():
        path.write_bytes(files[kind])
    return paths


def _load(paths: dict):
    return load_dataset(
        paths["edges"], paths["subgraphs"], embeddings=paths["embeddings"], split=paths["splits"]
    )


damage = st.tuples(
    st.sampled_from(sorted(PAST)), st.sampled_from(MUTATIONS), st.integers(0, 10**6)
)


@settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(damages=st.lists(damage, min_size=1, max_size=2))
def test_load_dataset_loads_a_valid_bundle_or_names_a_file(tmp_path, saved_tiny, damages):
    files = dict(saved_tiny)
    for kind, mutation, where in damages:
        files[kind] = mutate(kind, files[kind], mutation, where)
    paths = _write_bundle(Path(tempfile.mkdtemp(dir=tmp_path)), files)
    try:
        bundle = _load(paths)
    except ValueError as err:
        message = str(err)
        assert any(
            re.match(rf"{re.escape(str(path))}(:\d+)?: ", message) for path in paths.values()
        ), message
    else:
        assert bundle_problem(bundle) is None


@pytest.mark.parametrize("kind", sorted(PAST))
def test_train_command_exits_with_the_located_error(tmp_path, saved_tiny, kind):
    # Each mutation that fails in-process must fail the same way from the
    # command line: a nonzero exit whose last stderr line is the ValueError
    # naming one of the bundle's files.
    env = {**os.environ, "PYTHONPATH": str(Path(subgraph_infomax.__file__).parents[1])}
    raised = 0
    for mutation in MUTATIONS:
        out = tmp_path / mutation
        out.mkdir()
        paths = _write_bundle(out, {**saved_tiny, kind: mutate(kind, saved_tiny[kind], mutation, 7)})
        try:
            _load(paths)
        except ValueError as err:
            message = str(err)
        else:
            continue
        raised += 1
        assert any(message.startswith(str(path)) for path in paths.values()), message
        argv = [
            sys.executable, "-m", "subgraph_infomax", "train",
            "--set", f"edge_file={paths['edges']}",
            "--set", f"subgraph_file={paths['subgraphs']}",
            "--set", f"embedding_file={paths['embeddings']}",
            "--set", f"split_file={paths['splits']}",
            "--set", "epochs=1", "--set", "seeds=0", "--out", str(tmp_path / f"{mutation}-run"),
        ]
        proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode != 0, mutation
        assert proc.stderr.splitlines()[-1] == f"ValueError: {message}", (mutation, proc.stderr)
    assert raised
