import concurrent.futures
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from superstring import atsp, cli, pipeline
from superstring.atsp import SolverTag
from superstring.graph import overlap_matrix


def write_instance(tmp_path, lines, name="inst.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def load_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def scrub(report):
    report = dict(report)
    report.pop("timestamp", None)
    report["results"] = [{k: v for k, v in r.items() if k != "ms"}
                         for r in report["results"]]
    return report


# --------------------------------------------------------------------- solve

# stderr of an input (abc, b, abc) that normalizes to one string
SINGLE_STRING_WARNINGS = (
    "warning: instance degenerates to a single string\n"
    "warning: dropped duplicate string 'abc'\n"
    "warning: dropped substring string 'b'\n")


def test_solve_exact(tmp_path, capsys):
    path = write_instance(tmp_path, ["abc", "bcd", "cde"])
    out = str(tmp_path / "r.json")
    assert cli.main(["solve", path, "--algo", "exact", "--json", out]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "abcde"
    report = load_json(out)
    assert report["results"][0]["length"] == 5
    assert report["instance"] == {"n": 3, "total_length": 9}


def test_solve_combined(tmp_path, capsys):
    path = write_instance(tmp_path, ["ab", "ba"])
    assert cli.main(["solve", path, "--algo", "combined"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "bab"


def test_solve_each_algo_runs(tmp_path, capsys):
    path = write_instance(tmp_path, ["abab", "babb", "bba", "aab"])
    for algo in ("combined", "s1", "s2", "greedy", "exact"):
        assert cli.main(["solve", path, "--algo", algo]) == 0
    capsys.readouterr()


def test_solve_each_path_solver_runs(tmp_path, capsys):
    path = write_instance(tmp_path, ["abab", "babb", "bba", "aab"])
    for solver in ("exact", "half", "greedy"):
        assert cli.main(["solve", path, "--algo", "s1",
                         "--path-solver", solver]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("tag", list(SolverTag))
def test_solve_names_the_path_solver_it_ran(tag, tmp_path, capsys):
    # three cycles in the min cover, so s1 runs its path solver
    path = write_instance(tmp_path, ["abab" * 3, "aab" * 3, "aaab" * 3])
    assert cli.main(["solve", path, "--algo", "s1",
                     "--path-solver", tag.value]) == 0
    assert f"algorithm: s1[{tag.value}]" in capsys.readouterr().out.splitlines()


def test_solve_single_survivor_warns_but_succeeds(tmp_path, capsys):
    path = write_instance(tmp_path, ["abc", "b", "abc"])
    assert cli.main(["solve", path]) == 0
    captured = capsys.readouterr()
    assert captured.out == "abc\n"
    assert captured.err == SINGLE_STRING_WARNINGS


def test_solve_comments_and_blank_lines(tmp_path, capsys):
    path = write_instance(tmp_path, ["# a comment", "", "ab", "ba"])
    assert cli.main(["solve", path, "--algo", "exact"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "aba"


def test_solve_missing_file_exits_1(tmp_path, capsys):
    assert cli.main(["solve", str(tmp_path / "nope.txt")]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "char", [" ", "\t", "\x0b", "\x00", "\x7f", "\u00e9", "\u00a0"],
    ids=["space", "tab", "vertical-tab", "nul", "delete", "e-acute",
         "no-break-space"])
def test_solve_rejects_nonascii(tmp_path, capsys, char):
    path = write_instance(tmp_path, ["# comment", "abab", f"ba{char}b", "bba"])
    assert cli.main(["solve", path]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:3: strings must be printable non-whitespace ASCII\n")


def test_solve_accepts_the_ends_of_printable_ascii(tmp_path, capsys):
    path = write_instance(tmp_path, ["!a~", "~b!"])
    assert cli.main(["solve", path, "--algo", "exact"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "!a~b!"


@pytest.mark.parametrize("sep", ["\f", "\x85", "\u2028"],
                         ids=["form-feed", "next-line", "line-separator"])
def test_only_newline_ends_a_line(tmp_path, capsys, sep):
    path = tmp_path / "inst.txt"
    path.write_text(f"abab{sep}babb\nbba\n", encoding="utf-8")
    assert cli.main(["solve", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:1: strings must be printable non-whitespace ASCII\n")


@pytest.mark.parametrize("newline", [b"\r\n", b"\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_lines_still_solve(tmp_path, capsys, newline):
    path = tmp_path / "inst.txt"
    path.write_bytes(newline.join([b"# two strings", b"ab", b"ba", b""]))
    assert cli.main(["solve", str(path), "--algo", "exact"]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "aba"


def test_leading_byte_order_mark_is_skipped(tmp_path, capsys, monkeypatch):
    runs = []
    for name, bom in [("plain", b""), ("bom", b"\xef\xbb\xbf")]:
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        Path("inst.txt").write_bytes(bom + b"abc\nbcd\n")
        assert cli.main(["solve", "inst.txt", "--json", "r.json"]) == 0
        runs.append((capsys.readouterr(), scrub(load_json("r.json"))))
    assert runs[0] == runs[1]


def test_byte_order_mark_after_the_start_is_rejected(tmp_path, capsys):
    path = tmp_path / "inst.txt"
    path.write_bytes(b"abc\n\xef\xbb\xbfbcd\n")
    assert cli.main(["solve", str(path)]) == 1
    assert capsys.readouterr().err == (
        f"error: {path}:2: strings must be printable non-whitespace ASCII\n")


def test_solve_empty_input_exits_1(tmp_path, capsys):
    path = write_instance(tmp_path, ["# nothing here"])
    assert cli.main(["solve", path]) == 1
    capsys.readouterr()


def test_solve_exact_limit_exit_2(tmp_path, capsys):
    strings = ["x" * (i + 1) + "y" * (18 - i) for i in range(18)]
    path = write_instance(tmp_path, strings)
    assert cli.main(["solve", path, "--algo", "exact",
                     "--exact-limit", "4"]) == 2
    assert capsys.readouterr().err == (
        "error: exact solver limit: n=18 exceeds 4 (raise --exact-limit to override)\n")


def test_solve_exact_table_ceiling_exit_2_without_hint(tmp_path, monkeypatch, capsys):
    def no_table(n):
        raise AssertionError("the table ceiling must be checked first")

    monkeypatch.setattr(atsp, "_subset_layout", no_table)
    strings = [format(i, "05b") for i in range(23)]  # equal length: none is dropped
    path = write_instance(tmp_path, strings)
    assert cli.main(["solve", path, "--algo", "exact",
                     "--exact-limit", "30"]) == 2
    assert capsys.readouterr().err == (
        "error: exact solver table for n=23 would exceed 1 GiB\n")


def test_solve_imports_neither_scipy_optimize_nor_a_process_pool(tmp_path):
    """A fresh ``superstring solve`` loads scipy's assignment solver from
    its file, so all of ``scipy.optimize`` (linprog, linalg, ...) stays out;
    a solver that needs more of scipy imports it inside the function that
    uses it.  The process pool is imported only by a parallel ``verify``."""
    path = write_instance(tmp_path, ["abab", "babb", "bba"])
    code = f"""
import sys
from superstring import cli

assert cli.main(["solve", {path!r}]) == 0
leaked = [m for m in ("scipy.optimize", "concurrent.futures.process")
          if m in sys.modules]
sys.exit(f"imported: {{leaked}}" if leaked else 0)
"""
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    assert "length: " in run.stdout


# ------------------------------------------------------------------- compare

def test_compare_table_and_report(tmp_path, capsys):
    path = write_instance(tmp_path, ["abc", "bcd", "cde"])
    out = str(tmp_path / "c.json")
    assert cli.main(["compare", path, "--json", out]) == 0
    stdout = capsys.readouterr().out
    assert "greedy" in stdout and "exact" in stdout
    report = load_json(out)
    lengths = {r["algo"]: r["length"] for r in report["results"]}
    assert lengths["exact"] == 5 and lengths["greedy"] == 5
    assert lengths["s1"] == 6  # representative stays inside its repetitions
    assert report["verification"]["failed"] == 0


def test_compare_single_string_exits_0_like_solve(tmp_path, capsys):
    path = write_instance(tmp_path, ["abc", "b", "abc"])
    out = str(tmp_path / "c.json")
    assert cli.main(["compare", path, "--json", out]) == 0
    captured = capsys.readouterr()
    assert captured.err == SINGLE_STRING_WARNINGS
    algos = ["combined", "s1", "s2", "greedy", "exact"]
    assert captured.out.splitlines() == (
        [f"{'algorithm':<10} {'length':>7} {'overlap':>8} {'ratio':>7}"]
        + [f"{algo:<10} {3:>7} {0:>8} {'1.000':>7}" for algo in algos])
    report = load_json(out)
    assert report["instance"] == {"n": 1, "total_length": 3}
    assert [(r["algo"], r["length"], r["overlap"], r["order"])
            for r in report["results"]] == [(a, 3, 0, [0]) for a in algos]


@pytest.mark.parametrize("tag", list(SolverTag), ids=lambda tag: tag.value)
def test_compare_checks_each_solver_text_once(tmp_path, capsys, monkeypatch, tag):
    solution, seen = pipeline._solution, []

    def counted(inst, text, *args):
        seen.append(text)
        return solution(inst, text, *args)

    monkeypatch.setattr(pipeline, "_solution", counted)
    # two cover cycles, so s1 runs its path solver
    path = write_instance(tmp_path, ["aab", "aba", "baa", "ccd", "cdc", "dcc"])
    out = tmp_path / "c.json"
    assert cli.main(["compare", path, "--path-solver", tag.value,
                     "--json", str(out)]) == 0
    capsys.readouterr()
    assert len(load_json(out)["results"]) == len(pipeline.ALGORITHMS)
    # s1, s2, greedy and exact each check their own text once; combined is
    # the s1 or s2 run, and under half so is s1
    assert len(seen) == (3 if tag is SolverTag.CYCLE_COVER_HALF else 4)


@pytest.mark.parametrize("command", [
    ["solve"], ["compare"],  # solve runs combined by default
    *(["solve", "--algo", algo] for algo in ("s1", "s2", "greedy", "exact"))],
    ids=lambda command: command[-1])
def test_internal_assertion_exits_3_with_one_line(tmp_path, capsys, monkeypatch,
                                                  command):
    merge = pipeline._merge_texts
    monkeypatch.setattr(pipeline, "_merge_texts",
                        lambda texts, overlaps: merge(texts, overlaps)[1:])
    # two cover cycles, so s1 and s2 merge two representatives
    path = write_instance(tmp_path, ["aab", "aba", "baa", "ccd", "cdc", "dcc"])
    out = tmp_path / "r.json"
    assert cli.main([*command, path, "--json", str(out)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "internal error: pipeline output lost an input string\n"
    assert not out.exists()


@pytest.mark.parametrize("tag", list(SolverTag), ids=lambda tag: tag.value)
@pytest.mark.parametrize("lines", [["abab", "babb", "bba", "aab"],
                                   ["abc", "b", "abc"]], ids=["four", "one"])
def test_solve_reports_its_row_of_compare(tmp_path, capsys, lines, tag):
    path = write_instance(tmp_path, lines)
    out = str(tmp_path / "r.json")
    solver = ["--path-solver", tag.value]
    assert cli.main(["compare", path, *solver, "--json", out]) == 0
    compare = scrub(load_json(out))
    rows = {r["algo"]: r for r in compare["results"]}
    assert list(rows) == list(pipeline.ALGORITHMS)
    reports = [compare]
    for algo in pipeline.ALGORITHMS:
        assert cli.main(["solve", path, "--algo", algo, *solver,
                         "--json", out]) == 0
        solve = scrub(load_json(out))
        assert solve["instance"] == compare["instance"]
        assert solve["results"] == [rows[algo]]
        reports.append(solve)
    capsys.readouterr()
    # every row is checked, the one string an input normalizes to included
    for report in reports:
        checks = report["verification"]
        assert checks["run"] == checks["held"] == len(report["results"])
        assert (checks["failed"], checks["violations"]) == (0, [])


def test_successive_main_calls_do_not_leak_arguments(tmp_path, capsys):
    path = write_instance(tmp_path, ["abc", "bcd", "cde", "def"])
    assert cli.main(["solve", path, "--algo", "exact",
                     "--exact-limit", "3"]) == 2
    capsys.readouterr()
    assert cli.main(["solve", path]) == 0
    assert "algorithm: combined(" in capsys.readouterr().out
    assert cli.main(["compare", path]) == 0
    rows = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert "exact" in rows


# -------------------------------------------------------------------- verify

def test_verify_tight_suite(tmp_path, capsys):
    out = str(tmp_path / "v.json")
    assert cli.main(["verify", "--suite", "tight", "--json", out]) == 0
    report = load_json(out)
    assert report["verification"]["failed"] == 0
    assert report["verification"]["run"] > 500
    capsys.readouterr()


def test_verify_pairs_small(tmp_path, capsys):
    out = str(tmp_path / "v.json")
    assert cli.main(["verify", "--suite", "pairs", "--trials", "100",
                     "--seed", "7", "--json", out]) == 0
    report = load_json(out)
    assert report["verification"]["failed"] == 0
    assert report["seed"] == 7
    capsys.readouterr()


def test_verify_cycles_small(capsys):
    assert cli.main(["verify", "--suite", "cycles", "--trials", "60"]) == 0
    capsys.readouterr()


def test_verify_workers_match_sequential(tmp_path, capsys):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    base = ["verify", "--suite", "pairs", "--trials", "80", "--seed", "3"]
    assert cli.main(base + ["--json", out1]) == 0
    assert cli.main(base + ["--workers", "4", "--json", out2]) == 0
    capsys.readouterr()
    a, b = scrub(load_json(out1)), scrub(load_json(out2))
    a.pop("command"), b.pop("command")  # argv legitimately differs here
    assert a == b


def test_verify_cycles_output_independent_of_workers(tmp_path, capsys):
    # the pipeline campaign skips degenerate cycles in several chunks here
    base = ["verify", "--suite", "cycles", "--trials", "60", "--seed", "0"]
    runs = []
    for workers in ("1", "2"):
        out = str(tmp_path / f"w{workers}.json")
        assert cli.main(base + ["--workers", workers, "--json", out]) == 0
        report = scrub(load_json(out))
        report.pop("command")  # argv legitimately differs here
        runs.append((capsys.readouterr(), report))
    (cap1, report1), (cap2, report2) = runs
    assert "skipped" in cap1.err
    assert (cap1.out, cap1.err, report1) == (cap2.out, cap2.err, report2)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records ``max_workers`` and runs
    the chunks in this process."""

    def __init__(self, max_workers, sizes):
        sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, tasks):
        return list(map(fn, tasks))


@pytest.mark.parametrize("trials, workers, pools", [
    (0, 2, []), (1, 4, []), (3, 8, [3]), (5, 4, [3]), (8, 2, [2])])
def test_verify_starts_no_more_processes_than_chunks(
        trials, workers, pools, monkeypatch, capsys):
    sizes = []
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 8)
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        lambda max_workers: RecordingPool(max_workers, sizes))
    base = ["verify", "--suite", "pairs", "--trials", str(trials), "--seed", "2"]
    assert cli.main(base + ["--workers", str(workers)]) == 0
    parallel = capsys.readouterr()
    assert sizes == pools
    assert cli.main(base) == 0
    assert capsys.readouterr() == parallel
    assert "all checks held" in parallel.out


@pytest.mark.parametrize("cpus, pools", [(2, [2]), (1, []), (None, [])])
def test_verify_starts_no_more_processes_than_cpus(cpus, pools, monkeypatch, capsys):
    # a fake pool: a large --workers value must never reach a real one
    sizes = []
    monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr(
        concurrent.futures, "ProcessPoolExecutor",
        lambda max_workers: RecordingPool(max_workers, sizes))
    base = ["verify", "--suite", "pairs", "--trials", "8", "--seed", "2"]
    assert cli.main(base + ["--workers", "1000"]) == 0
    parallel = capsys.readouterr()
    assert sizes == pools
    assert cli.main(base) == 0
    assert capsys.readouterr() == parallel


@pytest.mark.parametrize("workers", ["0", "-2"])
def test_verify_rejects_workers_below_one(workers, monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # never reached
    assert cli.main(["verify", "--trials", "4", "--workers", workers]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: --workers must be at least 1\n"


def test_verify_rejects_negative_trials(monkeypatch, capsys):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", None)  # never reached
    assert cli.main(["verify", "--trials", "-3", "--workers", "2"]) == 1
    cap = capsys.readouterr()
    assert cap.out == ""
    assert cap.err == "error: --trials must be at least 0\n"


# ----------------------------------------------------------------------- gen

def test_gen_tight2_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "t2.txt")
    assert cli.main(["gen", "--family", "tight2", "-k", "1", out]) == 0
    capsys.readouterr()
    strings = [l for l in Path(out).read_text().splitlines()
               if l and not l.startswith("#")]
    assert [len(s) for s in strings] == [15, 9]
    expected = load_json(out + ".expected.json")
    ov = overlap_matrix(strings)
    assert [int(ov.w[0, 1]), int(ov.w[1, 0])] == expected["overlaps"]


def test_gen_tight3_roundtrip(tmp_path, capsys):
    out = str(tmp_path / "t3.txt")
    assert cli.main(["gen", "--family", "tight3", "-n", "2", out]) == 0
    capsys.readouterr()
    strings = [l for l in Path(out).read_text().splitlines()
               if l and not l.startswith("#")]
    expected = load_json(out + ".expected.json")
    ov = overlap_matrix(strings)
    got = [int(ov.w[0, 1]), int(ov.w[1, 2]), int(ov.w[2, 0])]
    assert got == expected["overlaps"] == [28, 20, 17]


def test_gen_greedy_matches_printed_family(tmp_path, capsys):
    out = str(tmp_path / "g.txt")
    assert cli.main(["gen", "--family", "greedy", "-n", "6", out]) == 0
    capsys.readouterr()
    strings = [l for l in Path(out).read_text().splitlines()
               if l and not l.startswith("#")]
    assert strings == ["abbab", "bbaabba", "aabbbaabb", "bbbaaabbbaa"]


def test_gen_random_deterministic_and_solvable(tmp_path, capsys):
    out1, out2 = str(tmp_path / "r1.txt"), str(tmp_path / "r2.txt")
    for out in (out1, out2):
        assert cli.main(["gen", "--family", "random", "-n", "6",
                         "--seed", "3", out]) == 0
    assert Path(out1).read_text().replace("r1", "rX") \
        == Path(out2).read_text().replace("r2", "rX")
    assert cli.main(["solve", out1, "--algo", "combined"]) == 0
    capsys.readouterr()


# Files written by `gen --family random`; the trailing number is how many
# draws it took to keep n strings (the n=4 files hold every string there is).
@pytest.mark.parametrize("n, alphabet, min_len, max_len, seed, strings", [
    (3, 3, 2, 4, 0, ["abc", "bbb", "cac"]),  # 1 draw
    (3, 3, 2, 4, 1, ["abcc", "cbab", "caac"]),  # 7
    (4, 2, 1, 2, 0, ["bb", "ba", "ab", "aa"]),  # 8
    (4, 4, 1, 1, 0, ["d", "c", "a", "b"]),  # 6
    (5, 2, 3, 6, 1, ["ababbb", "aaaa", "aabb", "bbbab", "baab"]),  # 8
    (6, 2, 1, 3, 0, ["baa", "aba", "aaa", "bab", "abb", "bba"]),  # 407
    (6, 2, 4, 12, 3, ["baabbaba", "aabbbaaabb", "baabaaaaabbb", "abbbab",
                      "bbabbabbbb", "babbabaabbbb"]),  # 1
])
def test_gen_random_files_are_pinned(tmp_path, capsys, n, alphabet, min_len,
                                     max_len, seed, strings):
    out = tmp_path / "r.txt"
    assert cli.main(["gen", "--family", "random", "-n", str(n),
                     "--alphabet", str(alphabet), "--min-len", str(min_len),
                     "--max-len", str(max_len), "--seed", str(seed),
                     str(out)]) == 0
    assert capsys.readouterr().out == f"wrote {n} strings to {out}\n"
    header = f"# family=random n={n} seed={seed}"
    assert out.read_text(encoding="utf-8") == "\n".join([header, *strings]) + "\n"
    assert not Path(f"{out}.expected.json").exists()


@pytest.mark.parametrize("argv", [
    ["--family", "random", "-n", "1"],
    ["--family", "random", "--alphabet", "1"],
    ["--family", "random", "--alphabet", "9"],
    ["--family", "random", "--min-len", "0"],
    ["--family", "random", "--min-len", "5", "--max-len", "3"],
    ["--family", "random", "-n", "17", "--alphabet", "2", "--min-len", "4",
     "--max-len", "4"],
    ["--family", "tight2", "-k", "0"],
    ["--family", "tight3", "-n", "0"],
    ["--family", "greedy", "-n", "3"],
], ids=lambda argv: "-".join(a.lstrip("-") for a in argv[1:]))
def test_gen_rejects_out_of_range_numbers(tmp_path, capsys, argv):
    out = tmp_path / "bad.txt"
    assert cli.main(["gen", *argv, str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: gen --family {argv[1]}: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["solve", "{inst}", "--json", "{out}"],
    ["compare", "{inst}", "--json", "{out}"],
    ["verify", "--suite", "pairs", "--trials", "1", "--json", "{out}"],
    ["gen", "--family", "tight3", "-n", "1", "{out}"],
], ids=lambda argv: argv[0])
def test_unwritable_output_exits_1_without_traceback(tmp_path, capsys, argv):
    inst = write_instance(tmp_path, ["abc", "bcd", "cde"])
    out = str(tmp_path / "missing" / "r.json")
    assert cli.main([a.format(inst=inst, out=out) for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["solve", "{inst}", "--json", "{out}"],
    ["compare", "{inst}", "--json", "{out}"],
    ["verify", "--suite", "all", "--trials", "5", "--json", "{out}"],
], ids=lambda argv: argv[0])
def test_unwritable_json_is_refused_before_any_work(tmp_path, capsys,
                                                    monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before the output was checked")

    for name in ("solve_each", "_run_fuzz"):
        monkeypatch.setattr(cli, name, no_work)
    monkeypatch.setattr(cli.bounds, "tight_sweep", no_work)
    inst = write_instance(tmp_path, ["abc", "bcd", "cde"])
    out = str(tmp_path / "missing" / "r.json")
    assert cli.main([a.format(inst=inst, out=out) for a in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""  # verify printed no campaign line
    assert captured.err.startswith(f"error: cannot write {out}: ")
    assert captured.err.count("\n") == 1


def test_json_check_leaves_no_file_behind_a_refused_run(tmp_path, capsys):
    strings = ["x" * (i + 1) + "y" * (18 - i) for i in range(18)]
    inst = write_instance(tmp_path, strings)
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("old report\n", encoding="utf-8")
    for out in (fresh, kept):
        assert cli.main(["solve", inst, "--algo", "exact",
                         "--json", str(out)]) == 2
    assert not fresh.exists()
    assert kept.read_text(encoding="utf-8") == "old report\n"
    capsys.readouterr()


# ---------------------------------------------------------- in-place writes

STALE = b"x" * 50_000  # longer than any report or instance written below


@pytest.mark.parametrize("argv", [
    ["solve", "{inst}"],
    ["compare", "{inst}"],
    ["verify", "--suite", "tight"],
], ids=lambda argv: argv[0])
def test_json_over_a_longer_file_holds_only_the_new_report(tmp_path, capsys,
                                                           argv):
    inst = write_instance(tmp_path, ["abab", "babb", "bba", "aab"])
    out = tmp_path / "r.json"
    out.write_bytes(STALE)
    assert cli.main([a.format(inst=inst) for a in argv]
                    + ["--json", str(out)]) == 0
    capsys.readouterr()
    text = out.read_bytes().decode("utf-8")
    report = json.loads(text)  # no stale tail after the report
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"
    assert report["command"] == " ".join(a.format(inst=inst) for a in argv) \
        + f" --json {out}"


@pytest.mark.parametrize("command", ["solve", "compare"])
def test_json_to_dev_null_exits_0(tmp_path, capsys, command):
    inst = write_instance(tmp_path, ["abab", "babb", "bba", "aab"])
    assert cli.main([command, inst, "--json", "/dev/null"]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("family", ["tight3", "greedy", "random"])
def test_gen_over_longer_files_writes_exactly_the_new_bytes(tmp_path, capsys,
                                                            family):
    fresh, kept = tmp_path / "fresh.txt", tmp_path / "kept.txt"
    sidecar = Path(f"{kept}.expected.json")
    kept.write_bytes(STALE)
    sidecar.write_bytes(STALE)
    for out in (fresh, kept):
        assert cli.main(["gen", "--family", family, str(out)]) == 0
    capsys.readouterr()
    assert kept.read_bytes() == fresh.read_bytes()
    fresh_sidecar = Path(f"{fresh}.expected.json")
    if family == "random":  # no sidecar is written, the stale one stays
        assert not fresh_sidecar.exists() and sidecar.read_bytes() == STALE
    else:
        assert sidecar.read_bytes() == fresh_sidecar.read_bytes()


@pytest.mark.parametrize("umask", [0o000, 0o002, 0o022, 0o077], ids=oct)
def test_new_report_gets_the_mode_open_w_gives(tmp_path, capsys, umask):
    inst = write_instance(tmp_path, ["abab", "babb", "bba", "aab"])
    reference, report = tmp_path / "ref.json", tmp_path / "r.json"
    old = os.umask(umask)
    try:
        with open(reference, "w", encoding="utf-8"):
            pass
        assert cli.main(["solve", inst, "--json", str(report)]) == 0
    finally:
        os.umask(old)
    capsys.readouterr()
    assert stat.S_IMODE(report.stat().st_mode) \
        == stat.S_IMODE(reference.stat().st_mode) == 0o666 & ~umask


# ------------------------------------------------------------- determinism

def test_repeated_runs_identical_json(tmp_path, capsys):
    inst = write_instance(tmp_path, ["abab", "babb", "bba", "aab"])
    cases = [
        ["solve", inst, "--algo", "combined"],
        ["solve", inst, "--algo", "greedy"],
        ["compare", inst],
        ["verify", "--suite", "pairs", "--trials", "40", "--seed", "1"],
        ["verify", "--suite", "tight"],
    ]
    for i, argv in enumerate(cases):
        out = str(tmp_path / f"{i}.json")
        assert cli.main(argv + ["--json", out]) == 0
        first = scrub(load_json(out))
        assert cli.main(argv + ["--json", out]) == 0
        assert scrub(load_json(out)) == first, argv
    capsys.readouterr()
