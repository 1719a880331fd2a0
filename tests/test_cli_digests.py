"""Every pinned command-line output is byte-identical to its committed
digest (tests/cli_digests.json, written by tests/make_digests.py)."""

import pytest

import make_digests

PINNED = make_digests.load()


def test_digest_file_covers_the_sweep():
    assert list(PINNED) == [make_digests.key(argv) for argv in make_digests.RUNS]


@pytest.fixture(scope="module")
def theory_files(tmp_path_factory):
    path = tmp_path_factory.mktemp("theory_files")
    make_digests.write_files(path)
    return path


@pytest.mark.parametrize("argv", make_digests.RUNS, ids=make_digests.key)
def test_output_matches_its_digest(argv, theory_files, monkeypatch):
    monkeypatch.chdir(theory_files)
    sha, first = make_digests.digest(argv)
    want = PINNED[make_digests.key(argv)]
    assert {"sha256": sha, "first_line": first} == want
