"""The docs CI job's lint: knob/export coverage, link resolution and
repository paths."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent.parent


def _load_doclint():
    spec = importlib.util.spec_from_file_location(
        "doclint", REPO / "tools" / "doclint.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def doclint():
    return _load_doclint()


class TestRepoIsClean:
    def test_doclint_passes_at_head(self):
        proc = subprocess.run(
            [sys.executable, str(REPO / "tools" / "doclint.py")],
            cwd=REPO, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
        )
        assert proc.returncode == 0, proc.stdout.decode()

    def test_every_source_knob_is_collected(self, doclint):
        knobs = doclint._knobs_in_source()
        # These knobs are load-bearing; losing them from the scan would
        # silently gut the coverage check.
        assert {"JK_LRMI_SHM_THRESHOLD", "JK_CHAOS_PARTITION"} <= knobs
        # Constants now, not knobs: nothing ever set them.
        assert not {"JK_LRMI_WIRE", "JK_LRMI_RING_SIZE"} & knobs

    def test_exports_read_syntactically_match_runtime(self, doclint):
        import repro.core
        import repro.fleet

        exports = doclint._public_exports()
        assert sorted(exports["repro.core"]) == sorted(repro.core.__all__)
        assert sorted(exports["repro.fleet"]) == sorted(repro.fleet.__all__)


class TestDetection:
    def test_undocumented_knob_detected(self, doclint, tmp_path,
                                        monkeypatch, capsys):
        src = tmp_path / "src" / "repro"
        for package in ("core", "fleet"):
            pkg = src / package
            pkg.mkdir(parents=True)
            (pkg / "__init__.py").write_text("__all__ = []\n")
        (src / "knobby.py").write_text(
            'import os\nX = os.environ.get("JK_TOTALLY_NEW", "0")\n'
        )
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "a.md").write_text("# nothing here\n")
        (tmp_path / "README.md").write_text("# readme\n")
        monkeypatch.setattr(doclint, "REPO", tmp_path)
        monkeypatch.setattr(doclint, "SRC", tmp_path / "src")
        monkeypatch.setattr(doclint, "DOCS", docs)
        assert doclint.main() == 1
        assert "JK_TOTALLY_NEW" in capsys.readouterr().out

    def test_undocumented_export_detected(self, doclint, tmp_path,
                                          monkeypatch, capsys):
        src = tmp_path / "src" / "repro"
        (src / "core").mkdir(parents=True)
        (src / "core" / "__init__.py").write_text(
            '__all__ = ["BrandNewThing"]\n'
        )
        (src / "fleet").mkdir()
        (src / "fleet" / "__init__.py").write_text("__all__ = []\n")
        docs = tmp_path / "docs"
        docs.mkdir()
        # A substring is not enough — the name must appear as a word.
        (docs / "a.md").write_text("BrandNewThingamajig\n")
        (tmp_path / "README.md").write_text("# readme\n")
        monkeypatch.setattr(doclint, "REPO", tmp_path)
        monkeypatch.setattr(doclint, "SRC", tmp_path / "src")
        monkeypatch.setattr(doclint, "DOCS", docs)
        assert doclint.main() == 1
        assert "BrandNewThing" in capsys.readouterr().out

    def test_dangling_link_detected(self, doclint, tmp_path,
                                    monkeypatch, capsys):
        src = tmp_path / "src" / "repro"
        for package in ("core", "fleet"):
            (src / package).mkdir(parents=True)
            (src / package / "__init__.py").write_text("__all__ = []\n")
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "a.md").write_text(
            "see [the other page](missing.md) and "
            "[the web](https://example.com) and [here](#anchor)\n"
        )
        (tmp_path / "README.md").write_text("# readme\n")
        monkeypatch.setattr(doclint, "REPO", tmp_path)
        monkeypatch.setattr(doclint, "SRC", tmp_path / "src")
        monkeypatch.setattr(doclint, "DOCS", docs)
        assert doclint.main() == 1
        out = capsys.readouterr().out
        assert "missing.md" in out
        assert "example.com" not in out

    def test_fragment_links_resolve_against_the_file(self, doclint,
                                                     tmp_path,
                                                     monkeypatch):
        src = tmp_path / "src" / "repro"
        for package in ("core", "fleet"):
            (src / package).mkdir(parents=True)
            (src / package / "__init__.py").write_text("__all__ = []\n")
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "a.md").write_text("[jump](b.md#section)\n")
        (docs / "b.md").write_text("# b\n## section\n")
        (tmp_path / "README.md").write_text("# readme\n")
        monkeypatch.setattr(doclint, "REPO", tmp_path)
        monkeypatch.setattr(doclint, "SRC", tmp_path / "src")
        monkeypatch.setattr(doclint, "DOCS", docs)
        assert doclint.main() == 0

    def _tree(self, doclint, tmp_path, monkeypatch, page):
        src = tmp_path / "src" / "repro"
        for package in ("core", "fleet", "ipc"):
            (src / package).mkdir(parents=True)
            (src / package / "__init__.py").write_text("__all__ = []\n")
        (tmp_path / "benchmarks").mkdir()
        (tmp_path / "benchmarks" / "kept.py").write_text("")
        (tmp_path / "ROADMAP.md").write_text("# roadmap\n")
        docs = tmp_path / "docs"
        docs.mkdir()
        (docs / "a.md").write_text(page)
        (tmp_path / "README.md").write_text("# readme\n")
        monkeypatch.setattr(doclint, "REPO", tmp_path)
        monkeypatch.setattr(doclint, "SRC", tmp_path / "src")
        monkeypatch.setattr(doclint, "DOCS", docs)

    def test_dangling_repository_path_detected(self, doclint, tmp_path,
                                               monkeypatch, capsys):
        self._tree(doclint, tmp_path, monkeypatch,
                   "run `benchmarks/gone.py`, see `repro/ipc/com.py`, "
                   "`ipc/old.py` and `BENCH_gone.json`; `benchmarks/kept.py`, "
                   "`benchmarks/*.py`, `repro/ipc`, `ROADMAP.md`, "
                   "`jk/Kernel`, `try/finally`, `/servlet/doc10` and a bare "
                   "`lrmi.py` are fine\n")
        assert doclint.main() == 1
        out = capsys.readouterr().out
        for gone in ("benchmarks/gone.py", "repro/ipc/com.py", "ipc/old.py",
                     "BENCH_gone.json"):
            assert f"`{gone}`" in out
        assert out.count("dangling path") == 4

    def test_run_output_names_are_not_repository_paths(self, doclint,
                                                       tmp_path,
                                                       monkeypatch):
        self._tree(doclint, tmp_path, monkeypatch,
                   "reads `result.json` and `.jkbench_out/A/result.json`, "
                   "appends to `BENCH_history.jsonl`, leaves "
                   "`.jkbench_tmp/` behind\n")
        assert doclint.main() == 0

    def test_verify_skill_is_scanned_when_present(self, doclint, tmp_path,
                                                  monkeypatch, capsys):
        self._tree(doclint, tmp_path, monkeypatch, "# clean\n")
        skill = tmp_path / doclint.VERIFY_SKILL
        skill.parent.mkdir(parents=True)
        skill.write_text("run `benchmarks/gone.py`\n")
        assert doclint.main() == 1
        assert "SKILL.md" in capsys.readouterr().out
