import os
import stat

import pytest

from promptlab.attributes import ResponseCache, fixture_search_result
from promptlab.config import RunConfig, save_run_config
from promptlab.data import TaskSpec
from promptlab.errors import DataError
from promptlab.search import export_result
from promptlab.serialize import (
    FORMAT_VERSION,
    atomic_write,
    dump_artifact,
    dump_json,
    load_artifact,
    load_json,
)


def test_failed_dump_leaves_the_target_and_no_temporary_file(tmp_path):
    target = tmp_path / "report.json"
    dump_json({"a": 1}, str(target))
    before = target.read_bytes()
    with pytest.raises(TypeError):
        dump_json({"a": object()}, str(target))
    assert target.read_bytes() == before
    assert os.listdir(tmp_path) == ["report.json"]


def test_failed_write_removes_its_temporary_file(tmp_path):
    target = tmp_path / "out.txt"
    atomic_write(str(target), "old\n")
    with pytest.raises(UnicodeEncodeError):
        atomic_write(str(target), "half written \udc80")
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_dump_json_is_sorted_indented_and_newline_terminated(tmp_path):
    path = tmp_path / "x.json"
    dump_json({"b": [1.5, 2], "a": "é"}, str(path))
    assert path.read_bytes() == b'{\n  "a": "\\u00e9",\n  "b": [\n    1.5,\n    2\n  ]\n}\n'
    assert load_json(str(path)) == {"a": "é", "b": [1.5, 2]}


WRITERS = {
    "dump_json": lambda path: dump_json({"a": 1}, path),
    "save_run_config": lambda path: save_run_config(RunConfig(task_spec=TaskSpec()), path),
    "export_result": lambda path: export_result(fixture_search_result(), path),
    "ResponseCache.put": lambda path: ResponseCache(os.path.dirname(path)).put("m", "k", "r"),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_every_writer_creates_files_under_the_umask(tmp_path, writer):
    previous = os.umask(0o027)
    try:
        WRITERS[writer](str(tmp_path / "artifact"))
    finally:
        os.umask(previous)
    files = os.listdir(tmp_path)
    assert len(files) == 1
    assert stat.S_IMODE(os.stat(tmp_path / files[0]).st_mode) == 0o640


def test_artifact_header_round_trips(tmp_path):
    path = str(tmp_path / "a.json")
    dump_artifact("thing", {"x": [1.5]}, path)
    assert load_json(path) == {"kind": "thing", "format_version": FORMAT_VERSION, "x": [1.5]}
    assert load_artifact(path, "thing", {"x": tuple}) == {"x": (1.5,)}


@pytest.mark.parametrize("payload, message", [
    ({"kind": "other", "format_version": FORMAT_VERSION}, "expected a 'thing' file"),
    ({"kind": "thing", "format_version": FORMAT_VERSION + 1}, "format_version"),
    ({"kind": "thing"}, "format_version None"),
    ([{"kind": "thing", "format_version": FORMAT_VERSION}], "expected a 'thing' file"),
])
def test_load_artifact_rejects_a_wrong_header_naming_the_path(tmp_path, payload, message):
    path = str(tmp_path / "a.json")
    dump_json(payload, path)
    with pytest.raises(DataError) as err:
        load_artifact(path, "thing", {})
    assert str(err.value).startswith(f"{path}: ")
    assert message in str(err.value)
