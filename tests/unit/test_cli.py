"""Unit tests for the command-line driver (python -m repro)."""

import pytest

from repro import obs
from repro.__main__ import main
from repro.programs.catalog import RECURSIVE
from repro.programs.loader import program_path

CRC32 = str(program_path("mibench/crc32.c"))


@pytest.fixture(autouse=True)
def _reset_obs():
    """CLI flags flip the process-global obs switch; isolate each test."""
    yield
    obs.disable()
    obs.reset()


#: A program without ``main``.
NO_MAIN = "int f(void) { return 1; }\n"


@pytest.fixture
def program_file(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(
        "#ifndef N\n#define N 3\n#endif\n"
        "int twice(int x) { return x * 2; }\n"
        "int main() { print_int(twice(N)); return 0; }\n")
    return str(path)


class TestBounds:
    def test_prints_table(self, program_file, capsys):
        assert main(["bounds", program_file]) == 0
        out = capsys.readouterr().out
        assert "twice" in out and "main" in out
        assert "stack requirement" in out

    def test_check_flag(self, program_file, capsys):
        assert main(["bounds", program_file, "--check"]) == 0
        out = capsys.readouterr().out
        assert "re-checked" in out and "exact" in out


class TestRun:
    def test_runs_at_verified_bound(self, program_file, capsys):
        assert main(["run", program_file]) == 0
        out = capsys.readouterr().out
        assert "6" in out
        assert "measured stack usage" in out

    def test_define_flag(self, program_file, capsys):
        assert main(["run", program_file, "-D", "N=21"]) == 0
        assert "42" in capsys.readouterr().out

    def test_explicit_stack_overflow(self, program_file, capsys):
        code = main(["run", program_file, "--stack", "4"])
        assert code == 125
        assert "overflow" in capsys.readouterr().out

    def test_exit_code_propagated(self, tmp_path, capsys):
        path = tmp_path / "seven.c"
        path.write_text("int main() { return 7; }\n")
        assert main(["run", str(path)]) == 7

    @pytest.mark.parametrize("ctype", ["int", "unsigned"])
    @pytest.mark.parametrize("argv, code", [
        (["run", "--engine", "legacy"], 125),
        (["run", "--engine", "decoded"], 125),
        (["run", "--engine", "codegen"], 125), (["run"], 125),
        (["trace"], 0)], ids=["legacy", "decoded", "codegen", "default",
                              "trace"])
    def test_infinite_conversion_goes_wrong(self, argv, code, ctype,
                                            tmp_path, capsys):
        path = tmp_path / "inf.c"
        path.write_text("double g = 1e300;\nint main(void) { g = g * g; "
                        f"return ({ctype})g; }}\n")
        assert main([*argv, str(path)]) == code
        assert "GoesWrong" in capsys.readouterr().out


class TestDump:
    @pytest.mark.parametrize("level", ["clight", "rtl", "linear", "mach",
                                       "asm"])
    def test_all_levels(self, program_file, capsys, level):
        assert main(["dump", program_file, "--level", level]) == 0
        assert "twice" in capsys.readouterr().out

    def test_single_function(self, program_file, capsys):
        assert main(["dump", program_file, "--level", "asm",
                     "--function", "twice"]) == 0
        out = capsys.readouterr().out
        assert "twice" in out and "main:" not in out

    def test_pass_toggles(self, program_file, capsys):
        assert main(["dump", program_file, "--level", "rtl",
                     "--no-constprop", "--no-deadcode", "--cse",
                     "--tailcall"]) == 0


class TestTrace:
    def test_events_printed(self, program_file, capsys):
        assert main(["trace", program_file]) == 0
        out = capsys.readouterr().out
        assert "call(main)" in out
        assert "call(twice)" in out
        assert "weight under the compiled metric" in out

    def test_limit(self, program_file, capsys):
        assert main(["trace", program_file, "--limit", "1"]) == 0
        out = capsys.readouterr().out
        assert "more events" in out


class TestCertify:
    def test_certify_and_recheck(self, program_file, tmp_path, capsys):
        cert = str(tmp_path / "prog.cert.json")
        assert main(["certify", program_file, "-o", cert]) == 0
        assert main(["check-cert", program_file, cert]) == 0
        out = capsys.readouterr().out
        assert "certificate OK" in out and "twice" in out

    def test_certify_to_stdout(self, program_file, capsys):
        assert main(["certify", program_file]) == 0
        assert "repro-stack-certificate" in capsys.readouterr().out

    def test_check_cert_against_modified_program(self, program_file,
                                                 tmp_path, capsys):
        cert = str(tmp_path / "prog.cert.json")
        assert main(["certify", program_file, "-o", cert]) == 0
        other = tmp_path / "other.c"
        other.write_text("int twice(int x) { return x; } "
                         "int main() { return twice(twice(1)); }")
        assert main(["check-cert", str(other), cert]) == 2
        assert "error" in capsys.readouterr().err


def _forge(data: dict, *row) -> int:
    """Append a bound row to a certificate document; its reference."""
    data["bounds"].append(list(row))
    return len(data["bounds"]) - 1


def _bound_lines(path: str) -> list[str]:
    """What ``check-cert`` prints per function: bytes, or the symbolic
    bound of a recursive function, as ``bounds`` prints it."""
    from repro.analyzer import StackAnalyzer
    from repro.driver import compile_c
    from repro.logic.bexpr import param_names

    with open(path) as handle:
        compilation = compile_c(handle.read(), filename=path)
    analysis = StackAnalyzer(compilation.clight).analyze()
    lines = []
    for name in sorted(analysis.functions):
        expr = analysis.bound_expr(name)
        lines.append(f"{name:24s} {expr!r}" if param_names(expr) else
                     f"{name:24s} "
                     f"{analysis.bound_bytes(name, compilation.metric):8d} "
                     "bytes")
    return lines


class TestCheckCertBounds:
    """``check-cert`` prints each function's bound, symbolic where it
    depends on the arguments."""

    @pytest.mark.parametrize("path", RECURSIVE)
    def test_recursive_bounds_print_symbolically(self, path, tmp_path,
                                                 capsys):
        program = str(program_path(path))
        cert = str(tmp_path / "cert.json")
        assert main(["certify", program, "-o", cert]) == 0
        capsys.readouterr()
        assert main(["check-cert", program, cert]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("# certificate OK")
        assert lines[1:] == _bound_lines(program)
        assert any("bytes" not in line for line in lines[1:])

    def test_an_infinite_bound_prints_as_such(self, program_file,
                                              tmp_path, capsys):
        """A certificate may claim ∞ (sound, if useless): weaken main's
        spec to ∞ through Q:CONSEQ.  It checks, and prints ∞ bytes."""
        import json

        cert = tmp_path / "prog.cert.json"
        assert main(["certify", program_file, "-o", str(cert)]) == 0
        data = json.loads(cert.read_text())
        entry, inf = data["functions"]["main"], _forge(data, "const", "inf")
        root = entry["derivation"]
        entry["derivation"] = {"rule": "Q:CONSEQ", "stmt": root["stmt"],
                               "pre": inf, "post": root["post"],
                               "children": [root]}
        entry["spec"]["pre"] = inf
        entry["total_bound"] = _forge(data, "add",
                                      _forge(data, "metric", "main"), inf)
        cert.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check-cert", program_file, str(cert)]) == 0
        assert f"{'main':24s} {'∞':>8} bytes" in \
            capsys.readouterr().out.splitlines()

    @pytest.mark.parametrize("path", ["mibench/crc32.c",
                                      "recursive/fact_sq.c"])
    def test_a_served_certificate_checks(self, path, tmp_path, capsys):
        """What README promises: the certificate in a serve answer,
        saved to a file, re-checks, and gives the served bounds."""
        from repro.serve import ResultStore, ServeRequest, run_pipeline
        from repro.serve.store import encode_json

        program = str(program_path(path))
        with open(program) as handle:
            document, _body = run_pipeline(
                ServeRequest(handle.read(), filename=path), ResultStore())
        cert = tmp_path / "served.json"
        cert.write_bytes(encode_json(document["certificate"]))
        capsys.readouterr()
        assert main(["check-cert", program, str(cert)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1:] == _bound_lines(program)
        served = document["bounds"]["functions"]
        printed = {line.split()[0]: line.split()[1] for line in lines[1:]}
        assert {name: printed[name] for name in served} == \
            {name: str(value) for name, value in served.items()}
        assert sorted(set(printed) - set(served)) == \
            document["bounds"].get("parametric", [])


class TestCheckCertRejection:
    """Every rejection path exits 2 with a diagnostic, never a traceback."""

    @pytest.fixture
    def cert(self, program_file, tmp_path):
        path = str(tmp_path / "prog.cert.json")
        assert main(["certify", program_file, "-o", path]) == 0
        return path

    def _expect_reject(self, program_file, cert, capsys, needle):
        code = main(["check-cert", program_file, cert])
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in captured.err and needle in captured.err
        assert "certificate OK" not in captured.out

    def test_malformed_json(self, program_file, cert, tmp_path, capsys):
        text = open(cert).read()
        bad = tmp_path / "malformed.json"
        bad.write_text(text[:len(text) // 2])
        self._expect_reject(program_file, str(bad), capsys, "not valid JSON")

    def test_truncated_rule_tree(self, program_file, cert, tmp_path, capsys):
        import json

        data = json.load(open(cert))
        for entry in data["functions"].values():
            nodes = [entry["derivation"]]
            while nodes:
                node = nodes.pop()
                if node.get("children"):
                    node["children"] = node["children"][:-1]
                    nodes = []
                    break
                nodes.extend(node.get("children", ()))
        bad = tmp_path / "truncated.json"
        bad.write_text(json.dumps(data))
        # The diagnostic names the failing rule application.
        self._expect_reject(program_file, str(bad), capsys, "Q:")

    def test_unsupported_version(self, program_file, cert, tmp_path, capsys):
        import json

        data = json.load(open(cert))
        data["version"] += 1
        bad = tmp_path / "version.json"
        bad.write_text(json.dumps(data))
        self._expect_reject(program_file, str(bad), capsys,
                            "unsupported certificate version")

    def test_wrong_program(self, cert, tmp_path, capsys):
        other = tmp_path / "unrelated.c"
        other.write_text("int main() { return 0; }\n")
        self._expect_reject(str(other), cert, capsys, "unknown function")

    def test_corrupt_total_bound(self, program_file, cert, tmp_path, capsys):
        import json

        data = json.load(open(cert))
        data["functions"]["main"]["total_bound"] = _forge(data, "const", 0)
        bad = tmp_path / "total.json"
        bad.write_text(json.dumps(data))
        self._expect_reject(program_file, str(bad), capsys,
                            "advertised total_bound")


class TestCheckCertUndefinedArithmetic:
    """Infinite constants in a parametric total bound end in a diagnosis."""

    PROGRAM = str(program_path("recursive/bsearch.c"))

    @pytest.fixture(scope="class")
    def certificate(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cert") / "bsearch.cert.json"
        assert main(["certify", self.PROGRAM, "-o", str(path)]) == 0
        return path.read_text()

    @pytest.mark.parametrize("total, needle", [
        # log2(∞) = ∞: a refuted total, not a crash.
        (lambda data: _forge(data, "log2", _forge(data, "const", "inf")),
         "does not equal"),
        # half(n - ∞) = half(-∞) has no value.
        (lambda data: _forge(data, "half", False, _forge(
            data, "pdiff", _forge(data, "param", "bsearch$#n"),
            _forge(data, "const", "inf"))),
         "cannot validate total_bound"),
    ])
    def test_exits_2_with_one_line(self, certificate, total, needle,
                                   tmp_path, capsys):
        import json

        data = json.loads(certificate)
        data["functions"]["bsearch"]["total_bound"] = total(data)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        capsys.readouterr()
        assert main(["check-cert", self.PROGRAM, str(bad)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err
        assert err.count("\n") == 1


class TestFuzzMatrixCLI:
    def test_plant_choices_come_from_the_registry(self, capsys):
        """A bad ``--plant`` is argparse's bad-choice error (exit 2), with
        the operator names read from the fault registry."""
        from repro.testing.faults import metric_fault_names

        with pytest.raises(SystemExit) as exit_info:
            main(["fuzz", "--plant", "drop-sp"])
        assert exit_info.value.code == 2
        names = ", ".join(repr(name) for name in metric_fault_names())
        assert "drop-ra" in names
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"error: argument --plant: invalid choice: 'drop-sp' "
            f"(choose from {names})")


#: Every count, size and time flag, with the name its type reports.
_RANGED_FLAGS = [
    (["run", "prog.c"], "--stack", "non-negative multiple of 4"),
    (["run", "prog.c"], "--fuel", "non-negative int"),
    (["trace", "prog.c"], "--fuel", "non-negative int"),
    (["trace", "prog.c"], "--limit", "non-negative int"),
    (["profile", "prog.c"], "--fuel", "non-negative int"),
    (["fuzz"], "--seeds", "non-negative int"),
    (["fuzz"], "--jobs", "non-negative int"),
    (["fuzz"], "--time-budget", "non-negative float"),
    (["fuzz"], "--status-interval", "non-negative float"),
    (["serve"], "--jobs", "non-negative int"),
    (["serve"], "--timeout", "non-negative float"),
    (["serve"], "--store-max-mb", "non-negative int"),
    (["serve"], "--port", "port (0-65535)"),
]


class TestRangedFlags:
    """A negative count, size or time is argparse's own error, exit 2,
    never a verdict computed from it."""

    @pytest.mark.parametrize(
        "argv,flag,name", _RANGED_FLAGS,
        ids=[f"{argv[0]}{flag}" for argv, flag, _ in _RANGED_FLAGS])
    def test_minus_one_is_rejected(self, argv, flag, name, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([*argv, flag, "-1"])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            f"error: argument {flag}: invalid {name} value: '-1'")

    @pytest.mark.parametrize("value", ["65536", "nan"])
    def test_out_of_range_is_rejected(self, value, capsys):
        flag = "--port" if value.isdigit() else "--timeout"
        with pytest.raises(SystemExit) as exit_info:
            main(["serve", flag, value])
        assert exit_info.value.code == 2
        assert f"argument {flag}: invalid" in capsys.readouterr().err

    def test_zero_keeps_its_meaning(self):
        """``serve --jobs 0`` runs in-process and ``--port 0`` picks a
        free port; zero is in range for every flag."""
        from repro.__main__ import _build_parser

        args = _build_parser().parse_args(
            ["serve", "--jobs", "0", "--port", "0", "--timeout", "0"])
        assert (args.jobs, args.port, args.timeout) == (0, 0, 0.0)
        args = _build_parser().parse_args(
            ["fuzz", "--seeds", "0", "--status-interval", "0"])
        assert (args.seeds, args.status_interval) == (0, 0.0)

    @pytest.mark.parametrize("size", ["1025", "1026", "1027"])
    def test_stack_not_a_multiple_of_four_is_rejected(self, size, capsys):
        """ESP would start off word alignment: no program could run."""
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--stack", size, CRC32])
        assert exit_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].endswith(
            "error: argument --stack: invalid non-negative multiple of 4 "
            f"value: '{size}'")

    def test_stack_multiple_of_four_runs(self, capsys):
        assert main(["run", "--stack", "1024", CRC32]) == 1
        assert capsys.readouterr().out.splitlines()[-2:] == [
            "# Converges, exit code 1",
            "# measured stack usage: 56 bytes (of 1024 available)"]

    def test_queue_check_stays(self, capsys):
        """``--queue`` keeps its own check in the pool: a diagnosis."""
        assert main(["serve", "--queue", "0", "--no-store"]) == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "error: queue depth must be at least 1")


class TestErrors:
    """Diagnosed errors exit 2 uniformly: one line on stderr, no traceback."""

    def test_missing_file(self, capsys):
        assert main(["bounds", "/nonexistent/x.c"]) == 2
        assert "error" in capsys.readouterr().err

    def test_directory_instead_of_file(self, tmp_path, capsys):
        assert main(["bounds", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_parse_error(self, tmp_path, capsys):
        path = tmp_path / "broken.c"
        path.write_text("int main( {")
        assert main(["bounds", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_recursion_reported(self, tmp_path, capsys):
        path = tmp_path / "rec.c"
        path.write_text("int f(int n) { return f(n); } "
                        "int main() { return 0; }")
        assert main(["bounds", str(path)]) == 2
        assert "recursion" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["bounds", "run", "dump", "trace",
                                         "profile", "certify"])
    def test_uniform_across_subcommands(self, command, capsys):
        assert main([command, "/nonexistent/x.c"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["bounds"], ["bounds", "--check"],
                                      ["run"], ["profile"]],
                             ids=["bounds", "bounds-check", "run", "profile"])
    def test_no_main_diagnosed(self, argv, tmp_path, capsys):
        """A file without ``main`` has no bound to report or run at."""
        path = tmp_path / "nomain.c"
        path.write_text(NO_MAIN)
        assert main([*argv, str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "error: program has no analyzed function 'main'"]

    def test_no_main_trace_goes_wrong(self, tmp_path, capsys):
        path = tmp_path / "nomain.c"
        path.write_text(NO_MAIN)
        assert main(["trace", str(path)]) == 0
        assert capsys.readouterr().out.startswith("# GoesWrong; 0 events")

    def test_unwritable_output_diagnosed(self, program_file, capsys):
        code = main(["bounds", program_file,
                     "--metrics-out", "/nonexistent-dir/m.json"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("depth", [60, 120])
    def test_deeply_parenthesised_expression_verifies(self, depth, tmp_path,
                                                      capsys):
        """A parenthesis level costs the parser seven frames, not 17."""
        path = tmp_path / "deep.c"
        path.write_text("int main(void){return " + "(" * depth + "1"
                        + ")" * depth + ";}")
        assert main(["bounds", str(path), "--check"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("literal", ["0x", "08", "09"])
    def test_malformed_integer_literal_is_diagnosed(self, literal, tmp_path,
                                                    capsys):
        path = tmp_path / "bad.c"
        path.write_text(f"int x = {literal};\nint main(void){{return x;}}\n")
        assert main(["bounds", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}:1:9: malformed numeric literal {literal!r}"]

    @pytest.mark.parametrize("initializer, column, message", [
        ("int x = 1/0;", 10, "division by zero in a constant expression"),
        ("int x = 5 % 0;", 11, "division by zero in a constant expression"),
        ("int x = 1 << -1;", 11,
         "negative shift count in a constant expression"),
        ("int x = 1e400;", 9, "conversion of inf to an integer is undefined"),
    ])
    def test_undefined_initializer_is_diagnosed(self, initializer, column,
                                                message, tmp_path, capsys):
        path = tmp_path / "init.c"
        path.write_text(f"{initializer}\nint main(void){{return x;}}\n")
        assert main(["bounds", str(path)]) == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: {path}:1:{column}: {message}"]

    @pytest.mark.parametrize("source", [
        "double d = 1.0/0.0;\nint main(void){return d > 1e308;}\n",
        "int main(void){int x = 1e400; return x;}\n"],
        ids=["global-division", "local-conversion"])
    def test_non_finite_double_verifies(self, source, tmp_path, capsys):
        path = tmp_path / "inf.c"
        path.write_text(source)
        assert main(["bounds", str(path), "--check"]) == 0
        assert capsys.readouterr().err == ""

    def test_internal_error_exits_70(self, tmp_path, capsys):
        """An exception that is not a diagnosis is a bug: exit 70, never
        1 (a failed check), and its traceback ends in one line naming it."""
        # A 2000-term chain: typecheck recurses once per operator.
        path = tmp_path / "chain.c"
        path.write_text("int main(void){int x = 1; return "
                        + "+".join(["x"] * 2000) + ";}")
        assert main(["bounds", str(path)]) == 70
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1].startswith(
            "internal error: RecursionError")


class TestObservabilityFlags:
    def test_metrics_out(self, program_file, tmp_path, capsys):
        import json

        out = tmp_path / "m.json"
        assert main(["bounds", program_file, "--check",
                     "--metrics-out", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["schema"] == "repro.obs.metrics/1"
        assert document["counters"]["checker.nodes"] > 0

    def test_trace_out_jsonl(self, program_file, tmp_path, capsys):
        import json

        out = tmp_path / "t.jsonl"
        assert main(["run", program_file, "--trace-out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert json.loads(lines[0])["type"] == "meta"
        names = {json.loads(line)["name"] for line in lines[1:]}
        assert "compile.frontend" in names
        assert "exec.asm" in names

    def test_trace_out_chrome(self, program_file, tmp_path, capsys):
        import json

        out = tmp_path / "t.json"
        assert main(["run", program_file, "--trace-out", str(out)]) == 0
        document = json.loads(out.read_text())
        assert document["traceEvents"]
        assert all(e["ph"] == "X" for e in document["traceEvents"])


class TestTraceStreaming:
    def test_truncation_marker_counts_hidden_events(self, program_file,
                                                    capsys):
        assert main(["trace", program_file, "--limit", "2"]) == 0
        out = capsys.readouterr().out
        # Exactly 2 events printed, the rest summarized.
        assert len([line for line in out.splitlines()
                    if line.startswith(("call(", "ret("))]) == 2
        assert "+" in out and "more events" in out

    def test_weight_covers_full_stream(self, program_file, capsys):
        """The reported weight is identical however far --limit cuts."""
        assert main(["trace", program_file, "--limit", "1"]) == 0
        truncated = capsys.readouterr().out
        assert main(["trace", program_file, "--limit", "100000"]) == 0
        full = capsys.readouterr().out
        weight = [line for line in full.splitlines() if "weight" in line]
        assert weight and weight[0] in truncated


class TestProfile:
    def test_renders_span_tree(self, program_file, capsys):
        assert main(["profile", program_file]) == 0
        out = capsys.readouterr().out
        for name in ("compile.frontend", "compile.backend", "analyze.auto",
                     "analyze.check", "exec.asm", "exec.clight", "exec.rtl",
                     "exec.mach", "total"):
            assert name in out, f"missing {name} in profile output"
        assert "steps/s" in out and "ms" in out

    def test_tier_table_has_codegen_on_asm_only(self, program_file, capsys):
        assert main(["profile", program_file]) == 0
        levels = ("clight", "rtl", "mach", "asm")
        rows = [line.split() for line in capsys.readouterr().out.splitlines()
                if line.split()[:1] and line.split()[0] in levels]
        assert sorted(row[0] for row in rows) == sorted(levels)
        for level, legacy, decoded, codegen, *_ratios in rows:
            assert legacy != "—" and decoded != "—", level
            assert (codegen != "—") == (level == "asm"), level

    @pytest.fixture
    def exported(self, program_file, tmp_path, capsys):
        """``profile`` with both exports, as the CI throughput gate runs it:
        returns stdout, the span records, the derived rates and the
        counters."""
        import json

        spans, metrics = tmp_path / "prof.jsonl", tmp_path / "prof.json"
        assert main(["profile", program_file, "--trace-out", str(spans),
                     "--metrics-out", str(metrics)]) == 0
        records = [json.loads(line)
                   for line in spans.read_text().splitlines()]
        document = json.loads(metrics.read_text())
        return (capsys.readouterr().out,
                [record for record in records if record["type"] == "span"],
                document["derived"], document["counters"])

    def test_exports_what_the_throughput_gate_reads(self, exported):
        """The perf-smoke gate compares engines through one ``exec.<level>``
        record per engine and the warm codegen rate: a renamed attribute
        must fail here, not leave the gate comparing nothing."""
        from repro.engines import ASM_ENGINES, SEMANTICS_ENGINES

        _out, spans, derived, _counters = exported
        for level in ("clight", "rtl", "mach", "asm"):
            engines = ASM_ENGINES if level == "asm" else SEMANTICS_ENGINES
            runs = [record.get("attrs") or {} for record in spans
                    if record["name"] == f"exec.{level}"]
            for engine in engines:
                measured = [attrs for attrs in runs
                            if attrs.get("engine") == engine
                            and attrs.get("steps", 0) > 0]
                assert len(measured) == 1, (level, engine)
        assert derived["interp.codegen.steps_per_s"] > 0

    def test_codegen_column_is_the_warm_rate(self, exported):
        """The codegen cell leaves out compile(): it is the time spent in
        generated code, not the whole ``exec.asm`` span."""
        out, _spans, derived, _counters = exported
        asm = next(line.split() for line in out.splitlines()
                   if line.split()[:1] == ["asm"])
        assert asm[3] == f"{derived['interp.codegen.steps_per_s']:,.0f}"

    #: Documented names a profile run cannot emit, and why.
    NOT_IN_PROFILE = {
        "interp.asm.tier_ups": "profile names each ASMsz engine, and only "
                               "a run given no engine tiers up",
        "decode.asm.cache.hits": "profile decodes its ASMsz program once",
    }

    def test_observability_doc_names_what_profile_emits(self, exported):
        """The ``exec.*``, ``interp.*`` and ``decode.*`` names in
        OBSERVABILITY.md are the ones a profile run emits, and the other
        way round: a documented name nothing emits, or an emitted name
        the doc omits, fails here."""
        _out, spans, derived, counters = exported
        prefixes = ("exec.", "interp.", "decode.")
        emitted = {name for name in [*(record["name"] for record in spans),
                                     *derived, *counters]
                   if name.startswith(prefixes)}
        documented = _documented_names(prefixes)
        assert self.NOT_IN_PROFILE.keys() <= documented
        assert not self.NOT_IN_PROFILE.keys() & emitted
        assert documented - self.NOT_IN_PROFILE.keys() == emitted


def _documented_names(prefixes: tuple[str, ...]) -> set[str]:
    """The backticked names in OBSERVABILITY.md that start with one of
    ``prefixes``, with ``<lang>`` and each ``{a,b}`` expanded."""
    import itertools
    import re
    from pathlib import Path

    doc = (Path(__file__).resolve().parents[2] / "docs"
           / "OBSERVABILITY.md").read_text()
    pattern = r"`((?:%s)[^`\s]*)`" % "|".join(map(re.escape, prefixes))
    names = set()
    for text in re.findall(pattern, doc):
        parts = re.split(r"(<lang>|\{[^}]*\})", text)
        choices = [("clight", "rtl", "mach", "asm") if part == "<lang>"
                   else part[1:-1].split(",") if part.startswith("{")
                   else (part,) for part in parts]
        names.update("".join(pick) for pick in itertools.product(*choices))
    return names
