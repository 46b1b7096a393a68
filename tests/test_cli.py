import argparse
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import pytest

import triprime
from triprime import cli
from triprime.cli import build_parser, main, pool_map
from triprime.groups import catalog, standard_catalog


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestInfo:
    def test_dihedral_30(self, capsys):
        code, out, _ = run(capsys, "info", "--catalog", "dihedral", "--n", "30")
        assert code == 0
        info = json.loads(out)
        assert info["order"] == 30
        assert info["primes"] == [2, 3, 5]
        assert info["solvable"] is True

    def test_sl23_example(self, capsys):
        code, out, _ = run(capsys, "info", "--catalog", "sl23_example")
        assert code == 0
        info = json.loads(out)
        assert info["order"] == 1512
        assert info["primes"] == [2, 3, 7]

    def test_malformed_file_names_line(self, capsys, tmp_path):
        path = tmp_path / "bad.grp"
        path.write_text("degree: 5\ngen: (1,2\n")
        code, _, err = run(capsys, "info", "--file", str(path))
        assert code == 2
        assert ":2:" in err

    def test_file_degree_over_the_bound(self, capsys, tmp_path):
        path = tmp_path / "big.grp"
        path.write_text("degree: 5000\ngen: ()\n")
        code, out, err = run(capsys, "info", "--file", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "source, message",
        [
            ("degree: 5\nbogus\n", "{path}:2: expected 'degree:' or 'gen:' line"),
            ("degree: 5\ndegree: 5\n", "{path}:2: duplicate degree line"),
            ("degree: five\n", "{path}:1: bad degree 'five'"),
            ("degree: 5\ncolour: red\n", "{path}:2: unknown key 'colour'"),
            ("# comment only\n", "{path}: missing 'degree:' line"),
            ("degree: 5\n", "{path}: no generators"),
            ("degree: 12\ngen: (1 2,3)\n", "{path}:2: malformed cycle notation: '(1 2,3)'"),
            ("degree: 1_20\ngen: (1,2)\n", "{path}:1: bad degree '1_20'"),
            (b"degree: 5\n# caf\xe9\ngen: (1,2)\n", "{path}:2: byte 0xe9 is not UTF-8"),
            (("cyclic", "0"), "cyclic group needs n >= 1"),
            (("symmetric", "0"), "symmetric group needs n >= 1"),
        ],
        ids=["no-key", "duplicate-degree", "bad-degree", "unknown-key", "no-degree", "no-gen",
             "digits-split-by-space", "degree-underscore", "latin-1-byte", "cyclic-0", "symmetric-0"],
    )
    def test_bad_input_is_one_error_line(self, capsys, tmp_path, source, message):
        # source is a group file's text or bytes, or a catalog (name, n)
        path = tmp_path / "bad.grp"
        if isinstance(source, tuple):
            argv = ["--catalog", source[0], "--n", source[1]]
        else:
            path.write_bytes(source.encode() if isinstance(source, str) else source)
            argv = ["--file", str(path)]
        code, out, err = run(capsys, "info", *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message.format(path=path)}\n"

    def test_byte_order_mark_is_skipped(self, capsys, tmp_path):
        path = tmp_path / "s5.grp"
        text = "degree: 5\ngen: (1,2)\ngen: (1,2,3,4,5)\n"
        outputs = []
        for data in (text.encode(), b"\xef\xbb\xbf" + text.encode()):
            path.write_bytes(data)
            outputs.append(run(capsys, "info", "--file", str(path)))
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0 and json.loads(outputs[0][1])["order"] == 120

    def test_refusal_names_the_order_quickly(self, capsys):
        # a catalog group knows its order: it is refused before anything is listed
        start = time.perf_counter()
        code, out, err = run(capsys, "info", "--catalog", "symmetric", "--n", "150")
        assert time.perf_counter() - start < 5
        assert code == 2
        assert out == ""
        assert err == f"error: group order {math.factorial(150)} exceeds cap 20000; raise the cap to proceed\n"

    def test_file_refusal_is_quick(self, capsys, tmp_path):
        # a group file knows no order: it is refused once its listing passes the cap
        path = tmp_path / "s150.grp"
        path.write_text(f"degree: 150\ngen: (1,2)\ngen: ({','.join(map(str, range(1, 151)))})\n")
        start = time.perf_counter()
        code, out, err = run(capsys, "info", "--file", str(path))
        assert time.perf_counter() - start < 2
        assert (code, out) == (2, "")
        assert err == "error: group has more than 20000 elements, exceeds cap 20000; raise the cap to proceed\n"

    def test_requires_exactly_one_spec(self, capsys):
        code, _, err = run(capsys, "info")
        assert code == 2

    def test_unknown_catalog_name(self, capsys):
        code, _, err = run(capsys, "info", "--catalog", "nope")
        assert code == 2
        assert "unknown catalog" in err

    def test_group_file(self, capsys, tmp_path):
        path = tmp_path / "c6.grp"
        path.write_text("degree: 6\ngen: (1,2,3,4,5,6)\n")
        code, out, _ = run(capsys, "info", "--file", str(path))
        assert code == 0
        assert json.loads(out)["order"] == 6


class TestGraph:
    def test_d30_dot_vertex_count(self, capsys):
        code, out, err = run(capsys, "graph", "--catalog", "dihedral", "--n", "30", "--format", "dot")
        assert code == 0
        assert out.count(" [label=") == 23  # 30 elements minus 7 isolated
        assert json.loads(err)["isolated_count"] == 7

    def test_s4_empty_export(self, capsys):
        code, out, err = run(capsys, "graph", "--catalog", "symmetric", "--n", "4", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["vertices"] == []
        assert payload["isolated_count"] == 24

    def test_deterministic_output(self, capsys):
        _, out1, _ = run(capsys, "graph", "--catalog", "dihedral", "--n", "30", "--format", "graphml")
        _, out2, _ = run(capsys, "graph", "--catalog", "dihedral", "--n", "30", "--format", "graphml")
        assert out1 == out2

    def test_unknown_format(self, capsys):
        code, _, err = run(capsys, "graph", "--catalog", "dihedral", "--n", "30", "--format", "png")
        assert code == 2

    def test_out_file_with_summary_sidecar(self, capsys, tmp_path):
        out_path = tmp_path / "d30.csv"
        code, _, _ = run(
            capsys, "graph", "--catalog", "dihedral", "--n", "30",
            "--format", "csv", "--out", str(out_path),
        )
        assert code == 0
        assert out_path.read_text().startswith("source,target")
        sidecar = json.loads((tmp_path / "d30.csv.summary.json").read_text())
        assert sidecar["isolated_count"] == 7

    def test_cap_exceeded(self, capsys):
        code, _, err = run(capsys, "graph", "--catalog", "symmetric", "--n", "5", "--cap", "100")
        assert code == 2
        assert "120" in err


class TestDistance:
    def d30(self, capsys, x, y):
        return run(capsys, "distance", "--catalog", "dihedral", "--n", "30", x, y)

    def test_rotation_to_rotation(self, capsys):
        code, out, _ = self.d30(capsys, "(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15)",
                                "(1,3,5,7,9,11,13,15,2,4,6,8,10,12,14)")
        assert code == 0
        assert out.strip() == "2"

    def test_rotation_to_reflection(self, capsys):
        code, out, _ = self.d30(capsys, "(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15)",
                                "(2,15)(3,14)(4,13)(5,12)(6,11)(7,10)(8,9)")
        assert code == 0
        assert out.strip() == "1"

    def test_isolated_endpoint(self, capsys):
        # a^5 has order 3 and is isolated
        code, out, _ = self.d30(capsys, "(1,6,11)(2,7,12)(3,8,13)(4,9,14)(5,10,15)",
                                "(1,2,3,4,5,6,7,8,9,10,11,12,13,14,15)")
        assert code == 0
        assert out.strip() == "isolated"

    def test_element_not_in_group(self, capsys):
        code, _, err = self.d30(capsys, "(1,2)", "(1,2,3)")
        assert code == 2
        assert "not in the group" in err


class TestVerify:
    def test_vacuous_pass(self, capsys):
        code, out, _ = run(capsys, "verify", "--catalog", "symmetric", "--n", "4")
        assert code == 0
        report = json.loads(out.splitlines()[0])
        assert report["status"] == "empty"

    def test_d30_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "--catalog", "dihedral", "--n", "30")
        assert code == 0
        report = json.loads(out.splitlines()[0])
        assert report["diameter"] == 2
        assert all(l["outcome"] != "fail" for l in report["lemmas"])

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "reports.jsonl"
        code, _, _ = run(capsys, "verify", "--catalog", "cyclic", "--n", "30",
                         "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["group"] == "cyclic(30)"

    def test_parallel_matches_serial_past_the_cap(self, capsys):
        # groups over the cap give an error record and do not fail the run
        serial = run(capsys, "verify", "--catalog-all", "--cap", "100", "--jobs", "1")
        parallel = run(capsys, "verify", "--catalog-all", "--cap", "100", "--jobs", "2")
        assert serial[0] == parallel[0] == 0
        assert parallel[1] == serial[1]
        records = [json.loads(line) for line in serial[1].splitlines()]
        assert len(records) == 16
        assert any("error" in r and "exceeds cap 100" in r["error"] for r in records)

    def test_file_past_the_cap_is_one_error_record(self, capsys, tmp_path):
        # a group file over the cap is reported like a catalog group over it
        path = tmp_path / "s5.grp"
        path.write_text("degree: 5\ngen: (1,2)\ngen: (1,2,3,4,5)\n")
        code, out, err = run(capsys, "verify", "--file", str(path), "--cap", "100")
        assert (code, err) == (0, "")
        assert [json.loads(line) for line in out.splitlines()] == [
            {"group": str(path), "error": "group has more than 100 elements, exceeds cap 100; raise the cap to proceed"}
        ]


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_never_more_workers_than_items(monkeypatch):
    # the calling process is one of the workers: it forks one child fewer
    real_fork = os.fork
    forks = []

    def counted_fork():
        forks.append(1)
        return real_fork()

    monkeypatch.setattr(os, "fork", counted_fork)
    assert list(pool_map(abs, [-1, -2], 64)) == [1, 2]
    assert len(forks) == 1
    assert list(pool_map(abs, [-3], 64)) == [3]
    assert list(pool_map(abs, [], 64)) == []
    assert len(forks) == 1
    _assert_no_child_left()


def test_more_results_than_one_pipe_holds_map_in_order():
    # the child's share fills its pipe long before this process reads it
    items = list(range(1 << 15))
    assert list(pool_map(abs, [-x for x in items], 2)) == items
    _assert_no_child_left()


def test_deal_pins_each_item_to_its_process(monkeypatch):
    # largest key first, each item to the lightest share, the one with fewer
    # items on a tie; the children take the shares in fork order, this
    # process the last one
    real_fork = os.fork
    children = []

    def recorded_fork():
        pid = real_fork()
        if pid:
            children.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", recorded_fork)
    items = [5, 0, 8, 3, 0, 7, 2, 0]
    got = list(pool_map(lambda x: (x, os.getpid()), items, 3, key=lambda x: x))
    assert [x for x, _ in got] == items
    share = {children[0]: 0, children[1]: 1, os.getpid(): 2}
    assert [share[pid] for _, pid in got] == [2, 0, 0, 2, 0, 1, 1, 2]
    _assert_no_child_left()


def _tenfold_but_three(x):
    if x == 3:
        raise ArithmeticError(f"no tenfold of {x}")
    return 10 * x


@pytest.mark.parametrize("key", [None, lambda x: x == 3], ids=["input-order", "child-first"])
def test_error_raised_at_its_position(key):
    # as map() raises it: same type and message, after the same earlier results
    outcomes = []
    for jobs in (1, 2):
        got = []
        with pytest.raises(ArithmeticError) as exc:
            for value in pool_map(_tenfold_but_three, [1, 2, 3, 4, 5], jobs, key=key):
                got.append(value)
        outcomes.append((type(exc.value), str(exc.value), got))
    assert outcomes[0] == outcomes[1] == (ArithmeticError, "no tenfold of 3", [10, 20])
    _assert_no_child_left()


def test_lost_child_is_raised_at_its_position():
    # the child starts on the largest item and exits with no result for it
    parent = os.getpid()

    def tenfold_or_exit(x):
        if x == 9 and os.getpid() != parent:
            os._exit(1)
        return 10 * x

    got = []
    with pytest.raises(ChildProcessError, match=r"^a worker process exited with no result for item 2$"):
        for value in pool_map(tenfold_or_exit, [1, 2, 9, 4, 5], 2, key=lambda x: x):
            got.append(value)
    assert got == [10, 20]
    _assert_no_child_left()


def test_lost_child_in_verify_is_one_error_line(capsys, monkeypatch):
    # the child starts on sl23_example, the largest and last catalog group,
    # and exits with no result: the earlier records stand, then exit 2
    _, serial, _ = run(capsys, "verify", "--catalog-all", "--stable")
    parent = os.getpid()
    verify_one = cli._verify_one

    def exit_on_sl23_example(group, cap):
        if group.name == "sl23_example" and os.getpid() != parent:
            os._exit(1)
        return verify_one(group, cap)

    monkeypatch.setattr(cli, "_verify_one", exit_on_sl23_example)
    code, out, err = run(capsys, "verify", "--catalog-all", "--stable", "--jobs", "2")
    assert code == 2
    assert err == "error: a worker process exited with no result for sl23_example\n"
    assert out.splitlines() == serial.splitlines()[:15]
    _assert_no_child_left()


def test_interrupt_in_own_share_reaps_every_child():
    # the children sleep on their shares; an interrupt in this process's own
    # share kills and reaps them at once
    parent = os.getpid()

    def sleep_or_interrupt(x):
        if os.getpid() == parent:
            raise KeyboardInterrupt
        time.sleep(30)
        return x

    start = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        next(pool_map(sleep_or_interrupt, [1, 2, 3], 3))
    _assert_no_child_left()
    assert time.perf_counter() - start < 10


@pytest.mark.parametrize("jobs", ["1", "2", "3", "16"])
def test_verify_digest_at_every_jobs_count(capsys, jobs):
    code, out, err = run(capsys, "verify", "--catalog-all", "--stable", "--jobs", jobs)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == (
        "d7cd81d43ca7b60f32ec9b36870715cf52617477fc2b9916ef977bfd4da957e6"
    )
    _assert_no_child_left()


class TestCsv:
    def test_d30_reads_back(self, capsys, tmp_path):
        out_path = tmp_path / "d30.csv"
        code, _, _ = run(
            capsys, "graph", "--catalog", "dihedral", "--n", "30",
            "--format", "csv", "--out", str(out_path),
        )
        assert code == 0
        with open(out_path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["source", "target"]
        assert all(len(row) == 2 for row in rows)
        assert any("," in label for label in rows[1])
        sidecar = json.loads((tmp_path / "d30.csv.summary.json").read_text())
        assert len(rows) - 1 == sidecar["edge_count"]


@pytest.mark.parametrize(
    "argv",
    [
        ["graph", "--catalog", "dihedral", "--n", "30", "--k", "0"],
        ["verify", "--catalog", "dihedral", "--n", "30", "--jobs", "-1"],
        ["info", "--catalog", "dihedral", "--n", "30", "--cap", "0"],
        ["distance", "--catalog", "dihedral", "--n", "30", "(1,2)", "(1,2)", "--k", "two"],
        ["graph", "--catalog", "dihedral", "--n", "30", "--jobs", "2"],
        ["distance", "--catalog", "dihedral", "--n", "30", "(1,2)", "(1,2)", "--jobs", "2"],
    ],
    ids=["k-zero", "jobs-negative", "cap-zero", "k-not-a-number", "graph-jobs", "distance-jobs"],
)
def test_non_positive_counts_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "flag, text",
    [("--k", "+3"), ("--k", "\u0663"), ("--cap", "1_000"), ("--cap", " 100"), ("--jobs", "\u0662"),
     ("--jobs", "\uff12")],
)
def test_counts_are_ascii_digits(capsys, flag, text):
    # int() reads each of these; a count is ASCII digits alone
    command = "verify" if flag == "--jobs" else "graph"
    code, out, err = run(capsys, command, "--catalog", "cyclic", "--n", "6", flag, text)
    assert (code, out) == (2, "")
    assert err == f"error: argument {flag}: expected a positive integer, got {text!r}\n"


@pytest.mark.parametrize("text", ["\u0661\u0662", "\uff11\uff12", "+6", "1_2", "-5"])
def test_n_is_ascii_digits(capsys, text):
    code, out, err = run(capsys, "info", "--catalog", "cyclic", "--n", text)
    assert (code, out) == (2, "")
    assert err == f"error: argument --n: expected a non-negative integer, got {text!r}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "--catalog", "alternating", "--n", "-5"],
        ["info", "--catalog", "alternating", "--n", "0"],
        ["graph", "--catalog", "alternating", "--n", "-1"],
    ],
    ids=["info-minus-five", "info-zero", "graph-minus-one"],
)
def test_alternating_below_one_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["info", "--catalog", "dihedral", "--n", "30"],
        ["graph", "--catalog", "dihedral", "--n", "30", "--format", "json"],
        ["verify", "--catalog", "dihedral", "--n", "30"],
    ],
    ids=["info", "graph", "verify"],
)
def test_out_in_missing_directory(capsys, tmp_path, argv):
    code, out, err = run(capsys, *argv, "--out", str(tmp_path / "missing" / "out.txt"))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv,reason",
    [
        (["verify", "--catalog-all", "--file", "/nonexistent"], "--catalog-all"),
        (["verify", "--catalog-all", "--file", "GROUP"], "--catalog-all"),
        (["verify", "--catalog-all", "--catalog", "cyclic", "--n", "3"], "--catalog-all"),
        (["verify", "--catalog-all", "--catalog", "frobenius21"], "--catalog-all"),
        (["verify", "--catalog-all", "--n", "3"], "--catalog-all"),
        (["info", "--file", "GROUP", "--n", "99"], "--n"),
        (["graph", "--file", "GROUP", "--n", "3"], "--n"),
        (["distance", "--file", "GROUP", "--n", "3", "(1,2)", "(1,2)"], "--n"),
        (["verify", "--file", "GROUP", "--n", "3"], "--n"),
    ],
    ids=["all-missing-file", "all-file", "all-catalog-n", "all-catalog", "all-n",
         "info-file-n", "graph-file-n", "distance-file-n", "verify-file-n"],
)
def test_conflicting_selectors_rejected(capsys, tmp_path, argv, reason):
    path = tmp_path / "c6.grp"
    path.write_text("degree: 6\ngen: (1,2,3,4,5,6)\n")
    code, out, err = run(capsys, *[str(path) if a == "GROUP" else a for a in argv])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert reason in err


def _cli(*argv, **kwargs):
    """A `python -m triprime.cli` process in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(triprime.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.Popen([sys.executable, "-m", "triprime.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, **kwargs)


def test_entry_point_exits_with_complete_output():
    # the process ends without interpreter teardown, once its output is flushed
    argv = ["graph", "--catalog", "alternating", "--n", "7", "--k", "2", "--format", "graphml"]
    with _cli(*argv) as proc:
        digest = hashlib.sha256()
        while chunk := proc.stdout.read(1 << 20):
            digest.update(chunk)
        err = proc.stderr.read()
    assert proc.returncode == 0
    assert digest.hexdigest() == "46d3d9b5626b4f2b692719f9956a478915ea10e9d40a155cec49428f46282352"
    assert json.loads(err)["edge_count"] == 3162075


def test_entry_point_reports_one_error_line():
    with _cli("graph", "--catalog", "dihedral", "--n", "30", "--k", "0") as proc:
        out, err = proc.communicate(timeout=60)
    assert (proc.returncode, out) == (2, b"")
    assert err == b"error: argument --k: expected a positive integer, got '0'\n"


def test_entry_point_on_a_closed_pipe():
    # as `graph ... | head -c 10`: exit 2 and one error line
    with _cli("graph", "--catalog", "dihedral", "--n", "210", "--k", "2", "--format", "graphml") as proc:
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        err = proc.stderr.read()
    assert proc.returncode == 2
    assert err == b"error: [Errno 32] Broken pipe\n"


def test_cli_import_skips_urllib():
    # xml.sax.saxutils would pull in urllib.request and http.client
    src = os.path.dirname(os.path.dirname(triprime.__file__))
    code = "import sys, triprime.cli; print('urllib.request' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    assert result.stdout == "False\n"


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_defaults_blas_to_one_thread(preset):
    # numpy's OpenBLAS thread pool has no work here: an unset variable loads
    # it with one thread and is unset again; a value the caller set is kept
    src = os.path.dirname(os.path.dirname(triprime.__file__))
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = src
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    code = ("import os, triprime\n"
            "print(os.environ.get('OPENBLAS_NUM_THREADS'))\n"
            "if os.path.exists('/proc/self/status'):  # the thread count, on Linux\n"
            "    print(open('/proc/self/status').read().split('Threads:')[1].split()[0])\n")
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, check=True)
    variable, *threads = result.stdout.split()
    assert variable == str(preset)
    if preset is None and threads:
        assert threads == ["1"]


# The standard_catalog() groups that --catalog can name: all but the three direct products.
CATALOG_SPECS = [
    ("cyclic", 2), ("cyclic", 30), ("cyclic", 105), ("cyclic", 210),
    ("dihedral", 30), ("dihedral", 210), ("symmetric", 4), ("symmetric", 5),
    ("alternating", 5), ("frobenius21", None), ("psl27", None), ("sl23", None),
    ("sl23_example", None),
]


def test_info_on_the_catalog_is_pinned(capsys):
    assert [catalog(name, n).name for name, n in CATALOG_SPECS] == [
        g.name for g in standard_catalog() if " x " not in g.name
    ]
    digest = hashlib.sha256()
    for name, n in CATALOG_SPECS:
        code, out, err = run(capsys, "info", "--catalog", name, *([] if n is None else ["--n", str(n)]))
        assert (code, err) == (0, "")
        digest.update(out.encode("utf-8"))
    assert digest.hexdigest() == "0d759b62c994e8d5f7a33dda8e1d8ed5c271caef97e272f976abbded80995fa4"


class _Sha256Sink:
    """A stand-in for sys.stdout whose binary buffer hashes what is written
    to it and keeps nothing."""

    def __init__(self):
        self.digest = hashlib.sha256()
        self.buffer = self

    def write(self, data):
        self.digest.update(data)
        return memoryview(data).nbytes

    def flush(self):
        pass


class _TextOnly:
    """A stand-in for sys.stdout or sys.stderr with only write and flush, as
    an embedding host may install."""

    def __init__(self):
        self.text = ""

    def write(self, text):
        self.text += text
        return len(text)

    def flush(self):
        pass


@pytest.mark.parametrize("command", [["info"], ["graph", "--format", "dot"], ["verify"]], ids=lambda c: c[0])
def test_text_only_streams_get_the_same_text(capsys, monkeypatch, command):
    argv = [*command, "--catalog", "dihedral", "--n", "30"]
    code, out, err = run(capsys, *argv)
    assert code == 0
    stdout, stderr = _TextOnly(), _TextOnly()
    monkeypatch.setattr(sys, "stdout", stdout)
    monkeypatch.setattr(sys, "stderr", stderr)
    assert main(argv) == 0
    assert (stdout.text, stderr.text) == (out, err)


def test_a7_k2_graphml_is_pinned(monkeypatch):
    # about 130 MB of GraphML, hashed as it streams out
    sink = _Sha256Sink()
    monkeypatch.setattr(sys, "stdout", sink)
    argv = ["graph", "--catalog", "alternating", "--n", "7", "--k", "2", "--format", "graphml"]
    assert main(argv) == 0
    assert sink.digest.hexdigest() == "46d3d9b5626b4f2b692719f9956a478915ea10e9d40a155cec49428f46282352"


_SPEC_ACTIONS = [
    (("-h", "--help"), "help", argparse.SUPPRESS, None, "show this help message and exit"),
    (("--catalog",), "catalog", None, None, "catalog group name"),
    (("--n",), "n", None, "_natural", "parameter for parametric catalog groups"),
    (("--file",), "file", None, None, "group file (degree: / gen: lines)"),
]
_CAP = (("--cap",), "cap", 20000, "_positive_int", None)
_JOBS = (("--jobs",), "jobs", 1, "_positive_int", None)
_K = (("--k",), "k", 3, "_positive_int", None)
_OUT = (("--out",), "out", None, None, None)


@pytest.mark.parametrize(
    "command,expected",
    [
        ("info", [*_SPEC_ACTIONS, _CAP, _OUT]),
        ("graph", [
            *_SPEC_ACTIONS, _K,
            (("--format",), "format", "dot", None, "dot | graphml | csv | json"),
            _CAP, _OUT,
        ]),
        ("distance", [
            *_SPEC_ACTIONS,
            ((), "x", None, None, "first element in cycle notation"),
            ((), "y", None, None, "second element in cycle notation"),
            _K, _CAP,
        ]),
        ("verify", [
            *_SPEC_ACTIONS,
            (("--catalog-all",), "catalog_all", False, None, "verify the whole catalog"),
            _CAP, _JOBS,
            (("--stable",), "stable", False, None,
             "report in catalog order (always the case; accepted for compatibility)"),
            _OUT,
        ]),
    ],
)
def test_parser_structure(command, expected):
    # every command's options, in order, with their defaults and types (help text aside)
    parser = build_parser()
    subparsers = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(subparsers.choices) == ["info", "graph", "distance", "verify"]
    actions = subparsers.choices[command]._actions
    assert [
        (tuple(a.option_strings), a.dest, a.default, getattr(a.type, "__name__", None), a.help)
        for a in actions
    ] == expected
