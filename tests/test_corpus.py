"""Expected outputs of the command line, one SHA-256 digest per case.

A case is one ``cli.main`` call.  Its digest covers the exit code, stdout,
stderr, the JSON report without ``timestamp``, ``command`` and each row's
``ms``, and the bytes of the files ``gen`` writes.  The cases are:

- ``solve`` and ``compare`` under every ``--path-solver`` on each input in
  ``corpus/``: the seed-1 instance files of the benchmark's reads, repeats
  and verify workloads, the periodic repro and a ``gen --family random``
  file of 24 strings (r24);
- ``gen`` of each family;
- one ``verify --suite all`` campaign at a fixed seed.

A change that is meant to change outputs rewrites the digests with

    PYTHONPATH=src python tests/test_corpus.py

and names the cases that changed.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from pathlib import Path

from superstring import cli
from superstring.atsp import SolverTag

CORPUS = Path(__file__).resolve().with_name("corpus")
DIGESTS = CORPUS / "digests.json"
GEN = (["--family", "tight2", "-k", "1"],
       ["--family", "tight3", "-n", "3"],
       ["--family", "greedy", "-n", "6"],
       ["--family", "random", "-n", "24", "--alphabet", "4", "--min-len", "8",
        "--max-len", "16", "--seed", "3"])
VERIFY = ["verify", "--suite", "all", "--trials", "40", "--seed", "7"]


def cases():
    """(name, argv) of every case; outputs go to the working directory."""
    for path in sorted(CORPUS.glob("*.txt")):
        for command in ("solve", "compare"):
            for tag in SolverTag:
                yield (f"{command} {path.name} --path-solver {tag.value}",
                       [command, str(path), "--path-solver", tag.value,
                        "--json", "report.json"])
    for args in GEN:
        yield " ".join(["gen", *args]), ["gen", *args, "out.txt"]
    yield " ".join(VERIFY), [*VERIFY, "--json", "report.json"]


def run_case(argv) -> str:
    """The digest of one ``cli.main(argv)`` call in the working directory."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    outcome = {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}
    for name in ("report.json", "out.txt", "out.txt.expected.json"):
        if os.path.exists(name):
            outcome[name] = Path(name).read_bytes().decode("utf-8")
            os.remove(name)
    if "report.json" in outcome:
        report = json.loads(outcome["report.json"])
        del report["timestamp"], report["command"]
        for row in report["results"]:
            del row["ms"]
        outcome["report.json"] = report
    return hashlib.sha256(json.dumps(outcome, sort_keys=True).encode()).hexdigest()


def corpus_digests() -> dict[str, str]:
    """{case name: digest} of every case, run in a scratch directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            return {name: run_case(argv) for name, argv in cases()}
        finally:
            os.chdir(cwd)


def test_every_case_gives_its_recorded_output():
    want = json.loads(DIGESTS.read_text(encoding="utf-8"))
    got = corpus_digests()
    changed = sorted(name for name in want.keys() | got.keys()
                     if want.get(name) != got.get(name))
    assert not changed, (f"{len(changed)} of {len(want)} cases changed, "
                         "or are new or gone:\n" + "\n".join(changed))


if __name__ == "__main__":
    DIGESTS.write_text(json.dumps(corpus_digests(), indent=1, sort_keys=True) + "\n",
                       encoding="utf-8")
