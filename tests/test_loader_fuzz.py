"""Arbitrary line bytes into every text-file reader: each call either loads
or raises a ValueError that starts with the path, and an error about one
line names that line's number."""

import re

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from subgraph_infomax.cli import parse_kv_file
from subgraph_infomax.data import (
    load_edge_file,
    load_embedding_file,
    load_split_file,
    load_subgraph_file,
)

READERS = {
    "edges": load_edge_file,
    "subgraphs": lambda path: load_subgraph_file(path, 5),
    "embeddings": lambda path: load_embedding_file(path, 2),
    "splits": lambda path: load_split_file(path, 2),
    "config": parse_kv_file,
}

# Fragments that reach past the first parse of each format.
TOKENS = [
    b"0", b"1", b"7", b"-2", b"1.5", b"nan", b"inf", b"1e999", b"x", b"train", b"test",
    b"#", b"=", b",", b"\t", b" ", b"\r", b"\xff", b"\xc3\xa9", b"\xed\xa0\x80", b"\x00",
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
