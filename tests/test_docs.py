"""Doc-rot gate: paths, modules and commands referenced by the docs exist.

The user-facing documents (`README.md`, `docs/architecture.md`,
`examples/README.md`, `ROADMAP.md`) name files, modules and commands.
Docs rot silently — a rename or deletion leaves the prose pointing at
nothing — so this tier-1 gate extracts every such reference from inline
code spans and fenced code blocks and asserts it still resolves:

* path-like tokens (``src/repro/...``, ``tests/...``, ``*.py``/``*.md``/
  ``*.json``) must exist in the repository;
* dotted ``repro...`` module references must be importable;
* ``python <script>`` / ``python -m <module>`` lines in fenced blocks
  must name real scripts/modules;
* the paper-claims contract table of ``docs/architecture.md`` and the
  ``tests/paper/test_paper_*.py`` exhibit modules must index each other.
"""

import argparse
import ast
import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DOC_FILES = [
    "README.md",
    "docs/architecture.md",
    "examples/README.md",
    "ROADMAP.md",
]

# Tokens that look like repository paths: at least one '/' plus a known
# text/code suffix, or a bare well-known filename.
_PATH_RE = re.compile(
    # Relative paths (segments start with a letter — optionally behind a
    # leading dot for dot-directories like .github/ — so "Fig. 5a/5b" and
    # absolute out-of-repo paths like /root/... do not match) or bare
    # filenames with a doc/code suffix.
    r"(?<![\w/])\.?(?:[A-Za-z][A-Za-z0-9_.-]*/)+[A-Za-z0-9_.-]*[A-Za-z0-9_]"
    r"|(?<![\w/])[A-Za-z0-9_.-]+\.(?:py|md|json)\b"
)
_MODULE_RE = re.compile(r"\brepro(?:\.[a-z_][a-z0-9_]*)+")
_CMD_RE = re.compile(r"python(?:3)?\s+(-m\s+)?([A-Za-z0-9_./-]+)")


def _code_fragments(text: str) -> list[str]:
    """Fenced code blocks plus inline code spans of a markdown document."""
    blocks = re.findall(r"```[a-z]*\n(.*?)```", text, flags=re.DOTALL)
    spans = re.findall(r"`([^`\n]+)`", re.sub(r"```.*?```", "", text, flags=re.DOTALL))
    return blocks + spans


def _doc(path_str: str) -> str:
    path = ROOT / path_str
    if not path.exists():
        pytest.fail(f"documented file {path_str} is missing")
    return path.read_text()


@pytest.mark.parametrize("doc", DOC_FILES)
def test_referenced_paths_exist(doc):
    missing = []
    for fragment in _code_fragments(_doc(doc)):
        for token in _PATH_RE.findall(fragment):
            token = token.rstrip("/.")
            if "*" in token or token.startswith(("http", "__")):
                continue
            if (ROOT / token).exists():
                continue
            if "/" not in token and list(ROOT.rglob(token)):
                # Bare filename mentioned in context (e.g. a directory
                # listing) — enough that it exists somewhere in-tree.
                continue
            missing.append(token)
    assert not missing, f"{doc} references nonexistent paths: {sorted(set(missing))}"


@pytest.mark.parametrize("doc", DOC_FILES)
def test_referenced_modules_import(doc):
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    broken = []
    for fragment in _code_fragments(_doc(doc)):
        for module in set(_MODULE_RE.findall(fragment)):
            try:
                spec = importlib.util.find_spec(module)
            except (ImportError, ModuleNotFoundError):
                spec = None
            if spec is None:
                # Accept attribute references like repro.core.paper_scenario:
                # the parent module must import and carry the attribute.
                parent, _, attr = module.rpartition(".")
                try:
                    mod = importlib.import_module(parent)
                except Exception:
                    mod = None
                if mod is None or not hasattr(mod, attr):
                    broken.append(module)
    assert not broken, f"{doc} references unimportable modules: {sorted(set(broken))}"


@pytest.mark.parametrize("doc", DOC_FILES)
def test_documented_commands_resolve(doc):
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    broken = []
    blocks = re.findall(r"```[a-z]*\n(.*?)```", _doc(doc), flags=re.DOTALL)
    for block in blocks:
        for dash_m, target in _CMD_RE.findall(block):
            if dash_m:
                module = target.replace("/", ".")
                if importlib.util.find_spec(module) is None:
                    broken.append(f"python -m {target}")
            elif target.endswith(".py") and not (ROOT / target).exists():
                broken.append(f"python {target}")
    assert not broken, f"{doc} documents commands that do not resolve: {broken}"


_CONTRACT_EXHIBITS = {"Table I", "Table II", "Headline"} | {
    f"Fig. {panel}" for panel in ("3a", "3b", "4a", "4b", "4c", "5a", "5b", "5c")
}
# | exhibit | claim | `tests/paper/<module>.py::<Name>` | `<subcommand>` |
_CONTRACT_ROW_RE = re.compile(
    r"^\| *([^|]+?) *\|.*\| *`(tests/paper/\w+\.py)::(\w+)` *\| *`([\w-]+)` *\|$",
    flags=re.MULTILINE,
)


def test_paper_contract_table_resolves():
    """Every row names a defined test and a real subcommand, and every
    exhibit module is indexed (resolved via ``ast``, nothing collected)."""
    src = str(ROOT / "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    from repro.cli import build_parser

    subcommands = next(
        action.choices
        for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )
    rows = _CONTRACT_ROW_RE.findall(_doc("docs/architecture.md"))
    assert {exhibit for exhibit, *_ in rows} == _CONTRACT_EXHIBITS
    for exhibit, module, name, subcommand in rows:
        path = ROOT / module
        assert path.exists(), f"{exhibit}: {module} is missing"
        defined = {
            node.name
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.ClassDef, ast.FunctionDef))
        }
        assert name in defined, f"{exhibit}: {module} defines no {name}"
        assert subcommand in subcommands, f"{exhibit}: no `repro {subcommand}`"
    indexed = {module for _, module, _, _ in rows}
    for path in sorted((ROOT / "tests/paper").glob("test_paper_*.py")):
        module = path.relative_to(ROOT).as_posix()
        assert module in indexed, f"{module} has no row in the contract table"


def test_required_docs_present():
    """The documentation surface itself must not rot away."""
    for doc in DOC_FILES:
        assert (ROOT / doc).exists(), f"{doc} missing"
    # The README must point readers at the perf ledger.
    readme = (ROOT / "README.md").read_text()
    assert "BENCHMARK.json" in readme
    assert "benchmarks/ledger/README.md" in readme
    assert "docs/architecture.md" in readme
