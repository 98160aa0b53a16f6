"""The lint framework itself: registry, suppression, reporters, CLI."""

import json

import pytest

from repro.analysis.linter import (
    PARSE_ERROR_CODE,
    Analysis,
    Finding,
    ImportMap,
    Linter,
    ModuleSource,
    Rule,
    register,
    registered_rules,
    render_text,
    report_dict,
    summary_counts,
    unsuppressed,
)


def lint_source(tmp_path, source, name="mod.py", **linter_kwargs):
    path = tmp_path / name
    path.write_text(source, encoding="utf-8")
    return Linter(**linter_kwargs).lint(Analysis.build([path]))


class TestRegistry:
    def test_all_shipped_rules_registered(self):
        codes = [cls.code for cls in registered_rules()]
        # RPR005 is retired (RPR101 reports its case); codes are never reused.
        assert codes == [
            "RPR001", "RPR002", "RPR003", "RPR004",
            "RPR101", "RPR102", "RPR103", "RPR104",
        ]

    def test_module_and_program_rules_partition_registry(self):
        # Two rule shapes, one registry and one driver: every rule
        # implements exactly one of check / check_program.
        module_codes = [
            cls.code for cls in registered_rules() if cls.check is not Rule.check
        ]
        program_codes = [
            cls.code
            for cls in registered_rules()
            if cls.check_program is not Rule.check_program
        ]
        assert module_codes == ["RPR001", "RPR002", "RPR003", "RPR004"]
        assert program_codes == ["RPR101", "RPR102", "RPR103", "RPR104"]

    def test_rules_have_names_and_descriptions(self):
        for cls in registered_rules():
            assert cls.name and cls.description

    def test_invalid_code_rejected(self):
        class Bad(Rule):
            code = "XXX1"

        with pytest.raises(ValueError, match="invalid code"):
            register(Bad)

    def test_conflicting_code_rejected(self):
        class Imposter(Rule):
            code = "RPR001"

        with pytest.raises(ValueError, match="already registered"):
            register(Imposter)

    def test_select_unknown_code_rejected(self):
        with pytest.raises(ValueError, match="RPR999"):
            Linter(select=["RPR999"])

    def test_select_unknown_code_error_lists_valid_codes(self):
        with pytest.raises(ValueError, match="RPR001.*RPR104"):
            Linter(select=["RPR999"])

    def test_select_empty_selection_rejected(self):
        # A selector matching nothing must not silently lint nothing.
        with pytest.raises(ValueError, match="empty rule selection"):
            Linter(select=[" ", ""])

    def test_select_program_rule_runs_on_the_one_driver(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import time\n"
            "def transform(inputs, ctx):\n"
            "    return config.threshold + time.time()\n"
            "flow.stage('s', transform)\n",
            select=["RPR101"],
        )
        assert [f.code for f in findings] == ["RPR101"]

    def test_select_restricts_rules(self):
        linter = Linter(select=["RPR002"])
        assert [rule.code for rule in linter.rules] == ["RPR002"]


class TestSuppression:
    def test_noqa_comment_parsed(self, tmp_path):
        path = tmp_path / "m.py"
        path.write_text(
            "x = 1  # repro: noqa[RPR001, RPR002]\ny = 2\n", encoding="utf-8"
        )
        module = ModuleSource.read(path)
        assert module.suppressed_codes(1) == frozenset({"RPR001", "RPR002"})
        assert module.suppressed_codes(2) == frozenset()

    def test_noqa_silences_but_still_collects(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random\n"
            "rng = random.Random()  # repro: noqa[RPR001]\n",
        )
        assert len(findings) == 1
        assert findings[0].suppressed
        assert findings[0].suppression == "noqa"
        assert unsuppressed(findings) == []

    def test_noqa_for_other_code_does_not_silence(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random\n"
            "rng = random.Random()  # repro: noqa[RPR002]\n",
        )
        assert [f.suppressed for f in findings] == [False]

    def test_noqa_on_last_line_of_multiline_statement(self, tmp_path):
        # black puts the closing paren (and the natural noqa spot) on the
        # last line; the finding anchors to the first.  Any line of the
        # statement must silence it.
        findings = lint_source(
            tmp_path,
            "import random\n"
            "values = [\n"
            "    random.random(),\n"
            "]  # repro: noqa[RPR001]\n",
        )
        assert len(findings) == 1
        assert findings[0].suppressed
        assert findings[0].suppression == "noqa"

    def test_noqa_on_first_line_silences_later_lines(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random\n"
            "values = sorted(  # repro: noqa[RPR001]\n"
            "    [random.random()],\n"
            ")\n",
        )
        assert [f.suppressed for f in findings] == [True]

    def test_noqa_in_loop_body_does_not_silence_header(self, tmp_path):
        # Compound statements spread only over their header lines: a noqa
        # anchored inside the body must not leak up to the for line.
        findings = lint_source(
            tmp_path,
            "import random\n"
            "for x in random.sample(range(10), 3):\n"
            "    y = 1  # repro: noqa[RPR001]\n",
        )
        assert len(findings) == 1
        assert not findings[0].suppressed


class TestLinting:
    def test_syntax_error_becomes_rpr000(self, tmp_path):
        findings = lint_source(tmp_path, "def broken(:\n")
        assert [f.code for f in findings] == [PARSE_ERROR_CODE]
        assert not findings[0].suppressed

    def test_lint_paths_recurses_deterministically(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "b.py").write_text(
            "import random\nrandom.random()\n", encoding="utf-8"
        )
        (tmp_path / "pkg" / "a.py").write_text(
            "import random\nrandom.random()\n", encoding="utf-8"
        )
        findings = Linter().lint(Analysis.build([tmp_path]))
        assert len(findings) == 2
        assert findings[0].path.endswith("a.py")
        assert findings[1].path.endswith("b.py")

    def test_each_file_is_read_and_parsed_once(self, tmp_path, monkeypatch):
        for name in ("a.py", "b.py", "c.py"):
            (tmp_path / name).write_text(
                "import random\nrandom.random()\n", encoding="utf-8"
            )
        reads = []
        real_read = ModuleSource.read.__func__

        def counting_read(cls, path):
            reads.append(str(path))
            return real_read(cls, path)

        monkeypatch.setattr(ModuleSource, "read", classmethod(counting_read))
        findings = Linter().lint(Analysis.build([tmp_path]))
        assert len(findings) == 3
        assert sorted(reads) == sorted(
            str(tmp_path / name) for name in ("a.py", "b.py", "c.py")
        )

    def test_findings_sorted_by_position(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random\nimport time\n"
            "time.time()\n"
            "random.random()\n",
        )
        assert [f.line for f in findings] == [3, 4]


class TestReporters:
    def test_render_text_hides_suppressed_by_default(self, tmp_path):
        findings = lint_source(
            tmp_path,
            "import random\n"
            "random.random()\n"
            "random.random()  # repro: noqa[RPR001]\n",
        )
        text = render_text(findings)
        assert "1 finding (1 suppressed)" in text
        assert "noqa" not in text
        shown = render_text(findings, show_suppressed=True)
        assert "(suppressed: noqa)" in shown

    def test_report_dict_roundtrips_json(self, tmp_path):
        findings = lint_source(tmp_path, "import time\ntime.time()\n")
        report = json.loads(json.dumps(report_dict(findings, ["x"])))
        assert report["ok"] is False
        assert report["paths"] == ["x"]
        assert report["summary"]["RPR002"] == {"flagged": 1, "suppressed": 0}

    def test_summary_counts_split(self):
        findings = [
            Finding("RPR001", "r", "m", "p", 1, 0),
            Finding("RPR001", "r", "m", "p", 2, 0, suppressed=True, suppression="noqa"),
        ]
        assert summary_counts(findings) == {
            "RPR001": {"flagged": 1, "suppressed": 1}
        }


class TestImportMap:
    def resolve(self, source, expr_source):
        module = ModuleSource("m.py", source + "\n" + expr_source + "\n")
        expr = module.tree.body[-1].value
        return ImportMap(module.tree).resolve(expr)

    def test_aliased_module(self):
        assert (
            self.resolve("import numpy as np", "np.random.default_rng")
            == "numpy.random.default_rng"
        )

    def test_from_import(self):
        assert self.resolve("from random import Random", "Random") == "random.Random"

    def test_local_name_not_resolved(self):
        assert self.resolve("rng = object()", "rng.random") is None


class TestCli:
    def run(self, *argv):
        from repro.analysis.__main__ import main

        return main(list(argv))

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert self.run(str(tmp_path)) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_exit_one_on_findings(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import time\ntime.time()\n", encoding="utf-8"
        )
        assert self.run(str(tmp_path)) == 1
        assert "RPR002" in capsys.readouterr().out

    def test_json_report_written(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import random\nrandom.random()\n", encoding="utf-8"
        )
        out = tmp_path / "report.json"
        assert self.run(str(tmp_path), "--json-report", str(out)) == 1
        report = json.loads(out.read_text(encoding="utf-8"))
        assert report["ok"] is False
        assert report["summary"]["RPR001"]["flagged"] == 1
        assert report["program"]["modules"] == 1
        capsys.readouterr()

    def test_flowcheck_flag_reports_figures(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        assert self.run(str(tmp_path), "--flowcheck") == 0
        out = capsys.readouterr().out
        assert "arecibo-figure1: ok" in out
        assert "cleo-figure2: ok" in out

    def test_list_rules(self, capsys):
        assert self.run("--list-rules") == 0
        out = capsys.readouterr().out
        for code in ("RPR001", "RPR002", "RPR003", "RPR004"):
            assert code in out
        assert len(out.splitlines()) == 8

    def test_list_rules_includes_deep_codes(self, capsys):
        assert self.run("--list-rules") == 0
        out = capsys.readouterr().out
        for code in ("RPR101", "RPR102", "RPR103", "RPR104"):
            assert code in out
            assert f"{code} " in out or f"{code}\t" in out or f"{code}  " in out
        # Every rule runs in the one pass: nothing to mark.
        assert "--deep" not in out

    def test_select_filters(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "import random\nrandom.random()\n", encoding="utf-8"
        )
        assert self.run(str(tmp_path), "--select", "RPR002") == 0
        capsys.readouterr()

    def test_select_unknown_code_exits_with_usage_error(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            self.run(str(tmp_path), "--select", "RPR999")
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "RPR999" in err
        assert "RPR001" in err  # the valid codes are listed

    def test_select_whitespace_only_exits_with_usage_error(self, tmp_path, capsys):
        # Previously ``--select ,`` selected nothing and exited 0 — the
        # silent-pass failure mode for a CI gate.
        (tmp_path / "bad.py").write_text(
            "import random\nrandom.random()\n", encoding="utf-8"
        )
        with pytest.raises(SystemExit) as excinfo:
            self.run(str(tmp_path), "--select", ",")
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_select_program_rule_alone_runs_it(self, tmp_path, capsys):
        (tmp_path / "bad.py").write_text(
            "def transform(inputs, ctx):\n"
            "    return config.threshold\n"
            "flow.stage('s', transform)\n",
            encoding="utf-8",
        )
        assert self.run(str(tmp_path), "--select", "RPR101") == 1
        assert "RPR101" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["--deep"], ["--baseline", "b.json"], ["--write-baseline", "b.json"]],
        ids=lambda argv: argv[0],
    )
    def test_removed_options_are_unknown(self, tmp_path, capsys, argv):
        (tmp_path / "ok.py").write_text("x = 1\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            self.run(*argv, str(tmp_path))
        assert excinfo.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_missing_path_is_usage_error_not_traceback(self, tmp_path, capsys):
        missing = tmp_path / "nope"
        with pytest.raises(SystemExit) as excinfo:
            self.run(str(missing))
        assert excinfo.value.code == 2
        assert str(missing) in capsys.readouterr().err

    def test_tree_without_python_files_is_usage_error(self, tmp_path, capsys):
        # Previously "0 findings (0 suppressed)" and exit 0: a gate
        # pointed at the wrong directory passed.
        (tmp_path / "notes.txt").write_text("x\n", encoding="utf-8")
        with pytest.raises(SystemExit) as excinfo:
            self.run(str(tmp_path))
        assert excinfo.value.code == 2
        assert str(tmp_path) in capsys.readouterr().err
