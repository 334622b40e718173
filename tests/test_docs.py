"""Documentation integrity: the docs must reference real code and files."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
EXAMPLES = sorted((REPO / "examples").glob("*.py"))
# Modules no CI step runs; every script keeps its work behind __main__.
UNRUN_MODULES = sorted((REPO / "benchmarks").glob("bench_*.py")) + sorted(
    (REPO / "scripts").glob("*.py")
)


class TestDocsExist:
    @pytest.mark.parametrize(
        "name", ["README.md", "DESIGN.md", "docs/paper_mapping.md", "docs/api_overview.md"]
    )
    def test_doc_present_and_nonempty(self, name):
        path = REPO / name
        assert path.exists(), f"{name} missing"
        assert len(path.read_text()) > 500


class TestReadmeReferences:
    def test_examples_listed_in_readme_exist(self):
        readme = (REPO / "README.md").read_text()
        for match in re.findall(r"`(\w+\.py)`", readme):
            if (REPO / "examples" / match).exists():
                continue
            # Allow non-example file mentions (e.g. module names).
            assert match in ("cli.py", "io.py"), f"README references missing example {match}"

    def test_quickstart_snippet_imports_work(self):
        # The README's quickstart imports must exist on the package.
        import repro

        for symbol in ("cora_like", "RDDConfig", "train_rdd"):
            assert hasattr(repro, symbol)


class TestExamplesRun:
    @pytest.mark.parametrize("script", EXAMPLES, ids=[path.name for path in EXAMPLES])
    def test_example_exits_cleanly(self, script):
        env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
        proc = subprocess.run(
            [sys.executable, str(script)], cwd=REPO, env=env,
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr[-2000:]


class TestBenchesAndScriptsImport:
    @pytest.mark.parametrize(
        "path", UNRUN_MODULES, ids=[path.relative_to(REPO).as_posix() for path in UNRUN_MODULES]
    )
    def test_module_imports(self, path, monkeypatch):
        # A bench or script that imports a deleted name fails here.  The
        # smoke scripts put src/ on sys.path themselves; undo that after.
        monkeypatch.setattr(sys, "path", list(sys.path))
        spec = importlib.util.spec_from_file_location(
            f"_import_check_{path.parent.name}_{path.stem}", path
        )
        spec.loader.exec_module(importlib.util.module_from_spec(spec))


def _generator():
    path = REPO / "scripts" / "generate_experiments.py"
    spec = importlib.util.spec_from_file_location("_generate_experiments", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGeneratedExperimentsRegion:
    """The EXPERIMENTS.md generator rewrites only its marked region."""

    def test_splice_keeps_text_outside_the_markers(self):
        gen = _generator()
        document = f"intro\n{gen.BEGIN}\nold tables\n{gen.END}\n\n## Hand-written\n"
        spliced = gen.splice_generated(document, "new tables\n")
        assert spliced == f"intro\n{gen.BEGIN}\nnew tables\n{gen.END}\n\n## Hand-written\n"
        assert gen.splice_generated(spliced, "new tables\n") == spliced

    @pytest.mark.parametrize("layout", ["none", "begin only", "twice", "reversed"])
    def test_refuses_a_document_without_one_marker_pair(self, layout):
        gen = _generator()
        document = {
            "none": "# EXPERIMENTS\n",
            "begin only": f"{gen.BEGIN}\ntables\n",
            "twice": f"{gen.BEGIN}\n{gen.END}\n{gen.BEGIN}\n{gen.END}\n",
            "reversed": f"{gen.END}\ntables\n{gen.BEGIN}\n",
        }[layout]
        with pytest.raises(ValueError, match="refusing to overwrite"):
            gen.splice_generated(document, "tables\n")

    def test_experiments_md_keeps_its_hand_written_sections_outside(self):
        gen = _generator()
        text = (REPO / "EXPERIMENTS.md").read_text()
        tail = gen.splice_generated(text, "").split(gen.END)[1]
        for heading in ("## Table 8 caveat", "## Timing recipe", "## Crash-safe long runs",
                        "## Streaming deltas"):
            assert heading in tail


# Every doc a reader follows to find code, scripts or results.
PATH_DOCS = sorted(
    [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "reports/README.md",
        "benchmarks/README.md",
        "examples/README.md",
        ".claude/skills/verify/SKILL.md",
    ]
    + [str(path.relative_to(REPO)) for path in (REPO / "docs").glob("*.md")]
)
# A repository path: one of these top-level directories, not preceded by
# another path component (so `/tmp/tests/x` does not count).
REPO_PATH = re.compile(
    r"(?<![\w./-])((?:benchmarks|scripts|bench|tests|examples|docs|reports|src/repro)/[\w./-]*)"
)


class TestDocPathReferences:
    @pytest.mark.parametrize("name", PATH_DOCS)
    def test_named_paths_exist(self, name):
        # A doc that names a deleted script, bench, baseline or module
        # fails here.
        doc = (REPO / name).read_text()
        named = {match.rstrip(".") for match in REPO_PATH.findall(doc)}
        named |= set(re.findall(r"BENCH_\w+\.json", doc))
        named |= {
            f"benchmarks/{match}" for match in re.findall(r"(?<![\w/])bench_\w+\.py", doc)
        }
        missing = sorted(path for path in named if not (REPO / path).exists())
        assert not missing, f"{name} names missing paths: {missing}"


class TestDesignReferences:
    def test_experiment_index_covers_all_paper_artifacts(self):
        design = (REPO / "DESIGN.md").read_text()
        for artifact in ("Figure 1", "Table 3", "Table 4", "Table 5", "Table 6",
                         "Figure 6", "Table 7", "Table 8", "Table 9"):
            assert artifact in design, f"DESIGN.md experiment index missing {artifact}"


class TestPaperMappingReferences:
    @pytest.mark.parametrize(
        "name", ["docs/paper_mapping.md", "README.md", "DESIGN.md", "docs/api_overview.md"]
    )
    def test_mapped_modules_importable(self, name):
        # Every `repro.…` path a doc names must resolve, so a doc that
        # names deleted code fails here.
        doc = (REPO / name).read_text()
        modules = set(re.findall(r"`(repro\.[A-Za-z0-9_.]+)`", doc))
        import importlib

        for dotted in sorted(modules):
            parts = dotted.split(".")
            # Try progressively shorter prefixes: entries may be attributes.
            for cut in range(len(parts), 1, -1):
                try:
                    module = importlib.import_module(".".join(parts[:cut]))
                    break
                except ModuleNotFoundError:
                    continue
            else:
                pytest.fail(f"{name} references unimportable {dotted}")
            for attr in parts[cut:]:
                assert hasattr(module, attr), f"{dotted} attribute chain broken at {attr}"
                module = getattr(module, attr)
