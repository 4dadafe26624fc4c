"""reprolint driver: file contexts, suppressions, rule registry, reporting.

Design
------
Every rule is *repo-level*: it receives a :class:`RepoContext` (parsed ASTs
of every file in scope plus the committed manifests) and yields
:class:`Violation` records.  Per-file rules simply loop over
``repo.files`` internally; repo-level rules (fingerprint completeness, docs
drift) read the specific modules they govern through the same context.  Keeping one rule signature makes registration, suppression
handling and JSON reporting uniform — and makes adding a rule a one-file
change (see ``docs/testing.md``, "Adding a rule").

Suppressions
------------
A violation on line *L* is suppressed by a trailing comment on that line::

    claims.items()  # reprolint: disable=ORD01: bank keys, order-independent

Suppressions are never silent: used ones are echoed in the report (and in
``--json``) so reviewers see every active exemption; a suppression without
a reason is itself a violation (``SUP01``), as is one that suppresses
nothing (``SUP02``).  Repo-level rules are exempted through the committed
manifests instead of inline comments, for the same diff-visibility reason.
"""

from __future__ import annotations

import ast
import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: ``# reprolint: disable=CODE[,CODE...][: reason]``
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s-]+?)(?::\s*(.+?))?\s*$"
)

#: Code of the "suppression without a reason" meta-violation.
SUP_NO_REASON = "SUP01"
#: Code of the "suppression that suppresses nothing" meta-violation.
SUP_UNUSED = "SUP02"

META_RULE_DOCS = {
    SUP_NO_REASON: "inline suppression carries no reason",
    SUP_UNUSED: "inline suppression matches no violation on its line",
}


@dataclass
class Violation:
    """One finding: a rule code anchored to a file and line."""

    code: str
    path: str  # repo-relative posix path
    line: int
    message: str
    suppressed: bool = False
    reason: Optional[str] = None

    def render(self) -> str:
        tag = f" [suppressed: {self.reason}]" if self.suppressed else ""
        return f"{self.path}:{self.line}: {self.code}{tag} {self.message}"

    def to_dict(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "code": self.code,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }
        if self.suppressed:
            data["suppressed"] = True
            data["reason"] = self.reason
        return data


@dataclass
class Suppression:
    """One parsed ``# reprolint: disable=...`` comment."""

    line: int
    codes: Tuple[str, ...]
    reason: Optional[str]
    used: List[str] = field(default_factory=list)


class FileContext:
    """One parsed source file: path, text, AST and suppressions."""

    def __init__(self, root: Path, rel: str) -> None:
        self.rel = rel
        self.path = root / rel
        self.source = self.path.read_text(encoding="utf-8")
        self.lines = self.source.splitlines()
        self.tree = ast.parse(self.source, filename=rel)
        self.suppressions: List[Suppression] = []
        for lineno, text in enumerate(self.lines, start=1):
            match = _SUPPRESS_RE.search(text)
            if match is None:
                continue
            codes = tuple(
                code.strip() for code in match.group(1).split(",") if code.strip()
            )
            reason = match.group(2)
            self.suppressions.append(
                Suppression(line=lineno, codes=codes, reason=reason)
            )

    def suppression_at(self, line: int, code: str) -> Optional[Suppression]:
        for supp in self.suppressions:
            if supp.line == line and code in supp.codes:
                return supp
        return None


class LintConfig:
    """The committed manifests plus the paths the rules govern.

    Tests override individual attributes to point rules at fixture files;
    the real configuration is loaded from ``tools/reprolint/manifest.json``
    and ``tools/reprolint/fingerprint_manifest.json``.
    """

    def __init__(self, manifest: Dict, fingerprint: Dict) -> None:
        self.src_globs: List[str] = manifest.get("src_globs", ["src/repro/**/*.py"])
        self.hot_modules: List[str] = manifest.get("hot_modules", [])
        self.env_allowlist: Dict[str, Dict] = manifest.get("env_allowlist", {})
        self.wallclock_allowlist: Dict[str, str] = manifest.get(
            "wallclock_allowlist", {}
        )
        self.deprecated: Dict[str, str] = manifest.get("deprecated_names", {})
        self.docs: Dict = manifest.get("docs", {})
        self.fingerprint: Dict = fingerprint

    @classmethod
    def load(cls, root: Path) -> "LintConfig":
        base = root / "tools" / "reprolint"
        manifest = json.loads((base / "manifest.json").read_text(encoding="utf-8"))
        fingerprint = json.loads(
            (base / "fingerprint_manifest.json").read_text(encoding="utf-8")
        )
        return cls(manifest, fingerprint)


class RepoContext:
    """Everything a rule may look at: parsed files, config, repo root."""

    def __init__(
        self,
        root: Path,
        config: LintConfig,
        rel_paths: Optional[Iterable[str]] = None,
    ) -> None:
        self.root = Path(root)
        self.config = config
        if rel_paths is None:
            rel_paths = sorted(
                str(path.relative_to(self.root)).replace("\\", "/")
                for pattern in config.src_globs
                for path in self.root.glob(pattern)
                if path.suffix == ".py"
            )
        self.files: List[FileContext] = [
            FileContext(self.root, rel) for rel in rel_paths
        ]
        self._by_rel = {ctx.rel: ctx for ctx in self.files}

    def get_file(self, rel: str) -> Optional[FileContext]:
        """The context for ``rel``, parsing it on demand if out of scope.

        Only Python sources get a context — violations anchored to other
        files (markdown, JSON) have no AST and no inline suppressions.
        """
        ctx = self._by_rel.get(rel)
        if ctx is None and rel.endswith(".py") and (self.root / rel).exists():
            ctx = FileContext(self.root, rel)
            self._by_rel[rel] = ctx
        return ctx


#: rule-group name -> check function(repo) -> iterable of violations
RULES: Dict[str, Callable[[RepoContext], Iterable[Violation]]] = {}
#: violation code -> one-line description (the rule catalog)
RULE_DOCS: Dict[str, str] = dict(META_RULE_DOCS)
#: violation code -> owning rule-group name
RULE_GROUPS: Dict[str, str] = {}


def rule(name: str, codes: Dict[str, str]):
    """Register a rule group under ``name`` documenting its ``codes``."""

    def decorator(func: Callable[[RepoContext], Iterable[Violation]]):
        RULES[name] = func
        RULE_DOCS.update(codes)
        for code in codes:
            RULE_GROUPS[code] = name
        return func

    return decorator


@dataclass
class LintResult:
    """The outcome of one lint run."""

    violations: List[Violation]  # active (unsuppressed) findings
    suppressed: List[Violation]  # findings silenced by an explained comment

    @property
    def exit_code(self) -> int:
        return 1 if self.violations else 0

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": 1,
            "violations": [v.to_dict() for v in self.violations],
            "suppressed": [v.to_dict() for v in self.suppressed],
            "counts": {
                "violations": len(self.violations),
                "suppressed": len(self.suppressed),
            },
            "exit_code": self.exit_code,
        }


def run_rules(
    repo: RepoContext, rule_names: Optional[Iterable[str]] = None
) -> LintResult:
    """Run the selected rule groups (default: all) and apply suppressions."""
    names = list(rule_names) if rule_names is not None else sorted(RULES)
    unknown = [name for name in names if name not in RULES]
    if unknown:
        raise KeyError(f"unknown rule group(s): {', '.join(unknown)}")
    raw: List[Violation] = []
    for name in names:
        raw.extend(RULES[name](repo))

    active: List[Violation] = []
    suppressed: List[Violation] = []
    for violation in raw:
        ctx = repo.get_file(violation.path)
        supp = (
            ctx.suppression_at(violation.line, violation.code) if ctx else None
        )
        if supp is not None:
            supp.used.append(violation.code)
            violation.suppressed = True
            violation.reason = supp.reason
            suppressed.append(violation)
        else:
            active.append(violation)

    # Meta-rule: suppressions must carry a reason and must actually suppress.
    # A suppression is only judged against rule groups that ran this pass —
    # a partial `--rules` run cannot call a HOT01 suppression unused when
    # the hot-path rule never looked.
    ran = set(names)
    for ctx in repo.files:
        for supp in ctx.suppressions:
            in_scope = any(
                RULE_GROUPS.get(code) in ran for code in supp.codes
            )
            if not in_scope:
                continue
            if not supp.used:
                active.append(
                    Violation(
                        code=SUP_UNUSED,
                        path=ctx.rel,
                        line=supp.line,
                        message=(
                            f"suppression of {','.join(supp.codes)} matches no "
                            "violation on this line — remove it"
                        ),
                    )
                )
            elif not supp.reason:
                active.append(
                    Violation(
                        code=SUP_NO_REASON,
                        path=ctx.rel,
                        line=supp.line,
                        message=(
                            f"suppression of {','.join(sorted(set(supp.used)))} "
                            "has no reason — explain it: "
                            "# reprolint: disable=CODE: why"
                        ),
                    )
                )

    active.sort(key=lambda v: (v.path, v.line, v.code))
    suppressed.sort(key=lambda v: (v.path, v.line, v.code))
    return LintResult(violations=active, suppressed=suppressed)


def run_lint(
    root: Path,
    config: Optional[LintConfig] = None,
    rule_names: Optional[Iterable[str]] = None,
) -> LintResult:
    """Lint the repository at ``root`` (imports rules on first use)."""
    from tools.reprolint import rules  # noqa: F401  (registers the battery)

    if config is None:
        config = LintConfig.load(Path(root))
    repo = RepoContext(Path(root), config)
    return run_rules(repo, rule_names)


# ----------------------------------------------------------- AST utilities
def qualified_name(node: ast.AST, imports: Dict[str, str]) -> Optional[str]:
    """Dotted name of an attribute/name chain, resolved through imports.

    ``np.random.default_rng`` with ``import numpy as np`` resolves to
    ``numpy.random.default_rng``; ``environ.get`` with ``from os import
    environ`` resolves to ``os.environ.get``.  Returns None for anything
    that is not a plain dotted chain.
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(imports.get(node.id, node.id))
    return ".".join(reversed(parts))


def import_table(tree: ast.AST) -> Dict[str, str]:
    """Map local names to the dotted origin they were imported as."""
    table: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                table[alias.asname or alias.name.split(".")[0]] = (
                    alias.name if alias.asname else alias.name.split(".")[0]
                )
                if alias.asname:
                    table[alias.asname] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                table[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    return table


def class_fields(class_node: ast.ClassDef) -> List[str]:
    """Names of the annotated (dataclass) fields declared in a class body."""
    names: List[str] = []
    for item in class_node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            annotation = ast.dump(item.annotation)
            if "ClassVar" in annotation:
                continue
            names.append(item.target.id)
    return names


def find_class(tree: ast.AST, name: str) -> Optional[ast.ClassDef]:
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and node.name == name:
            return node
    return None


def base_names(class_node: ast.ClassDef) -> List[str]:
    """The (tail) names of a class's bases: ``enum.Enum`` -> ``Enum``."""
    names: List[str] = []
    for base in class_node.bases:
        while isinstance(base, ast.Subscript):  # Generic[ItemT]
            base = base.value
        if isinstance(base, ast.Attribute):
            names.append(base.attr)
        elif isinstance(base, ast.Name):
            names.append(base.id)
    return names


def component_classes(tree: ast.AST) -> List[ast.ClassDef]:
    """``Component`` subclasses in ``tree``, transitively within the module."""
    known = {"Component"}
    classes = [n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)]
    # Two passes so a subclass-of-a-subclass defined before its parent in
    # the file is still found (rare, but cheap to get right).
    for _ in range(2):
        for node in classes:
            if known.intersection(base_names(node)):
                known.add(node.name)
    return [n for n in classes if n.name in known and n.name != "Component"]
