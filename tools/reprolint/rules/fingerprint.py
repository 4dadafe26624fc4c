"""Fingerprint-completeness rules: cache keys must cover every spec field.

The result cache is sound only if every field that can change a measurement
is part of the cache key.  That property is easy to break invisibly: add a
field to ``SystemConfig`` or ``RunSpec``, forget the fingerprint, and stale
cached results silently impersonate the new configuration.  These rules pin
the covered field-set in a committed manifest
(``tools/reprolint/fingerprint_manifest.json``) so any drift is loud:

``FPR01`` — a dataclass field exists in code but is neither listed as
    covered nor named on the manifest's ``exempt`` map (with a reason).
``FPR02`` — the manifest lists a field the class no longer declares
    (stale manifest).
``FPR03`` — the manifest's ``schema_version`` differs from
    ``CACHE_SCHEMA_VERSION`` in the spec module.
``FPR04`` — a field the manifest claims is covered with ``explicit``
    coverage is never referenced as ``self.<field>`` inside the class's
    ``fingerprint`` method.  (``wholesale`` coverage — the whole dataclass
    passed through ``canonicalize`` — covers every field by construction
    and needs no per-field check.)
``FPR05`` — the digest of the *actual* covered field-sets does not match
    ``digest_history`` for the current schema version: the fingerprint's
    field-set changed without a ``CACHE_SCHEMA_VERSION`` bump.  Bumping the
    version and recording the new digest is a deliberate, diff-visible act.
"""

from __future__ import annotations

import ast
import hashlib
import json
from typing import Dict, Iterator, List, Optional, Tuple

from tools.reprolint.core import RepoContext, Violation, find_class, rule

DOCS = {
    "FPR01": "dataclass field missing from the fingerprint manifest",
    "FPR02": "fingerprint manifest lists a field the class no longer has",
    "FPR03": "fingerprint manifest schema_version != CACHE_SCHEMA_VERSION",
    "FPR04": "manifest-covered field not referenced in fingerprint()",
    "FPR05": "fingerprint field-set changed without a schema version bump",
}


def _annotated_fields(class_node: ast.ClassDef) -> List[Tuple[str, int]]:
    """(name, line) of each dataclass field declared in the class body."""
    fields: List[Tuple[str, int]] = []
    for item in class_node.body:
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            if "ClassVar" in ast.dump(item.annotation):
                continue
            fields.append((item.target.id, item.lineno))
    return fields


def _self_attrs_in_fingerprint(class_node: ast.ClassDef) -> Optional[set]:
    """Names referenced as ``self.X`` inside the class's fingerprint method."""
    for item in class_node.body:
        if isinstance(item, ast.FunctionDef) and item.name == "fingerprint":
            return {
                node.attr
                for node in ast.walk(item)
                if isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"
            }
    return None


def _schema_version(tree: ast.AST) -> Optional[Tuple[int, int]]:
    """(value, line) of the ``CACHE_SCHEMA_VERSION = N`` assignment."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if (
                    isinstance(target, ast.Name)
                    and target.id == "CACHE_SCHEMA_VERSION"
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, int)
                ):
                    return node.value.value, node.lineno
    return None


def field_set_digest(covered: Dict[str, List[str]]) -> str:
    """Stable digest of the covered field-sets, as pinned in digest_history."""
    payload = json.dumps(
        {name: sorted(fields) for name, fields in covered.items()},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


@rule("fingerprint", DOCS)
def check(repo: RepoContext) -> Iterator[Violation]:
    manifest = repo.config.fingerprint
    if not manifest:
        return
    spec_rel = manifest.get("spec_module", "src/repro/orchestrate/spec.py")
    spec_ctx = repo.get_file(spec_rel)

    # --- FPR03: manifest pinned to the live schema version ----------------
    spec_version = _schema_version(spec_ctx.tree) if spec_ctx else None
    manifest_version = manifest.get("schema_version")
    if spec_version is not None and manifest_version != spec_version[0]:
        yield Violation(
            "FPR03", spec_rel, spec_version[1],
            f"CACHE_SCHEMA_VERSION is {spec_version[0]} but the fingerprint "
            f"manifest pins schema_version {manifest_version} — update "
            "tools/reprolint/fingerprint_manifest.json alongside the bump",
        )

    # --- FPR01/FPR02/FPR04: per-class field coverage ----------------------
    actual_covered: Dict[str, List[str]] = {}
    for class_name, entry in sorted(manifest.get("classes", {}).items()):
        rel = entry.get("module", spec_rel)
        ctx = repo.get_file(rel)
        class_node = find_class(ctx.tree, class_name) if ctx else None
        if class_node is None:
            yield Violation(
                "FPR02", rel, 1,
                f"fingerprint manifest covers class `{class_name}` which "
                f"does not exist in {rel} — remove the stale entry",
            )
            continue
        declared = dict(_annotated_fields(class_node))
        listed = set(entry.get("fields", []))
        exempt = entry.get("exempt", {})
        coverage = entry.get("coverage", "wholesale")

        for name, lineno in sorted(declared.items()):
            if name not in listed and name not in exempt:
                yield Violation(
                    "FPR01", rel, lineno,
                    f"`{class_name}.{name}` is not covered by the cache "
                    "fingerprint — add it to the fingerprint (and bump "
                    "CACHE_SCHEMA_VERSION) or exempt it with a reason in "
                    "tools/reprolint/fingerprint_manifest.json",
                )
        for name in sorted(listed.union(exempt)):
            if name not in declared:
                yield Violation(
                    "FPR02", rel, class_node.lineno,
                    f"fingerprint manifest lists `{class_name}.{name}` but "
                    "the class no longer declares it — remove the stale "
                    "manifest entry",
                )
        if coverage == "explicit":
            referenced = _self_attrs_in_fingerprint(class_node)
            if referenced is None:
                yield Violation(
                    "FPR04", rel, class_node.lineno,
                    f"`{class_name}` is manifested with explicit coverage "
                    "but defines no fingerprint() method",
                )
            else:
                for name in sorted(listed):
                    if name in declared and name not in referenced:
                        yield Violation(
                            "FPR04", rel, class_node.lineno,
                            f"`{class_name}.{name}` is claimed covered but "
                            "fingerprint() never reads self."
                            f"{name} — cover it or exempt it",
                        )
        # Digest over what the code actually covers (declared minus exempt),
        # so code drift is caught even if the manifest was edited to match.
        actual_covered[class_name] = sorted(
            name for name in declared if name not in exempt
        )

    # --- FPR05: field-set changes require a version bump ------------------
    if spec_version is not None and actual_covered:
        digest = field_set_digest(actual_covered)
        history = manifest.get("digest_history", {})
        pinned = history.get(str(spec_version[0]))
        if pinned != digest:
            yield Violation(
                "FPR05", spec_rel, spec_version[1],
                "fingerprint field-set changed without a schema bump: "
                f"digest is {digest} but digest_history[{spec_version[0]}] "
                f"pins {str(pinned)[:16]}… — bump CACHE_SCHEMA_VERSION and "
                "record the new digest in "
                "tools/reprolint/fingerprint_manifest.json",
            )
