"""Determinism rules: no ambient nondeterminism in the simulation core.

Every correctness claim in this reproduction is an *identity* claim —
event/naive runs must agree bit for bit, and a cached result must be
reproducible from its spec alone.  Ambient inputs (wall-clock time,
unseeded RNGs, environment variables) are the ways that property silently
rots:

``DET01`` — wall-clock reads (``time.time``, ``time.monotonic``,
    ``datetime.now``, ...).  Allowed only in modules on the committed
    ``wallclock_allowlist`` (the parallel runner's per-spec timeout is
    wall-clock *by design* and never touches simulated results).
``DET02`` — unseeded randomness: the ``random`` module's global functions,
    ``random.Random()`` with no seed, ``numpy.random.default_rng()`` with
    no seed, or the legacy ``numpy.random.*`` global generator.  Workload
    generators must take an explicit seed (they do — this rule keeps it so).
``DET03`` — environment reads (``os.environ``, ``os.getenv``) outside the
    committed ``env_allowlist``.  The one remaining seam never selects a
    simulation behaviour: the result-cache location
    (``$AXI_PACK_CACHE_DIR``, ``$XDG_CACHE_HOME``), named in the manifest
    with the variables it may read and why.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from tools.reprolint.core import (
    RepoContext,
    Violation,
    import_table,
    qualified_name,
    rule,
)

DOCS = {
    "DET01": "wall-clock read outside the wallclock allowlist",
    "DET02": "unseeded random number generator",
    "DET03": "environment read outside the env allowlist",
}

#: Wall-clock call targets (resolved through the import table).
_WALLCLOCK = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}

#: ``random`` module globals that use the shared, unseeded generator.
_GLOBAL_RANDOM = {
    "random.random",
    "random.randint",
    "random.randrange",
    "random.uniform",
    "random.choice",
    "random.choices",
    "random.sample",
    "random.shuffle",
    "random.gauss",
    "random.seed",
}

#: Constructors that are deterministic only when given an explicit seed.
_SEEDED_CTORS = {"random.Random", "numpy.random.default_rng"}

#: Legacy numpy global-state generator namespace.
_NUMPY_GLOBAL_PREFIX = "numpy.random."
_NUMPY_GLOBAL_OK = {"numpy.random.default_rng", "numpy.random.Generator",
                    "numpy.random.SeedSequence", "numpy.random.PCG64"}


def _module_str_constants(tree: ast.AST) -> dict:
    """Top-level ``NAME = "literal"`` assignments (env-var name constants)."""
    consts = {}
    for node in getattr(tree, "body", []):
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str)
        ):
            consts[node.targets[0].id] = node.value.value
    return consts


def _env_var_literal(call: ast.AST, consts: dict) -> Optional[str]:
    """The variable name an environ access names, when extractable.

    Resolves both string literals and module-level constants
    (``os.environ.get(CACHE_DIR_ENV)``).
    """
    key: Optional[ast.AST] = None
    if isinstance(call, ast.Call) and call.args:
        key = call.args[0]
    elif isinstance(call, ast.Subscript):
        key = call.slice
    if isinstance(key, ast.Constant) and isinstance(key.value, str):
        return key.value
    if isinstance(key, ast.Name):
        return consts.get(key.id)
    return None


def _env_allowed(rel: str, var: Optional[str], allowlist: dict) -> bool:
    entry = allowlist.get(rel)
    if entry is None:
        return False
    allowed = entry.get("vars", [])
    if allowed == "*":
        return True
    return var is not None and var in allowed


@rule("determinism", DOCS)
def check(repo: RepoContext) -> Iterator[Violation]:
    for ctx in repo.files:
        imports = import_table(ctx.tree)
        consts = _module_str_constants(ctx.tree)
        for node in ast.walk(ctx.tree):
            # --- DET01 / DET02: calls -------------------------------------
            if isinstance(node, ast.Call):
                name = qualified_name(node.func, imports)
                if name is None:
                    continue
                if name in _WALLCLOCK:
                    if ctx.rel not in repo.config.wallclock_allowlist:
                        yield Violation(
                            "DET01", ctx.rel, node.lineno,
                            f"wall-clock read `{name}()` — simulated results "
                            "must not depend on host time (allowlist it in "
                            "tools/reprolint/manifest.json if this is "
                            "host-side timing code)",
                        )
                elif name in _SEEDED_CTORS and not node.args and not node.keywords:
                    yield Violation(
                        "DET02", ctx.rel, node.lineno,
                        f"`{name}()` without a seed — pass an explicit seed "
                        "so results are reproducible from the spec",
                    )
                elif name in _GLOBAL_RANDOM:
                    yield Violation(
                        "DET02", ctx.rel, node.lineno,
                        f"`{name}()` uses the process-global RNG — use a "
                        "seeded `random.Random(seed)` instance instead",
                    )
                elif (
                    name.startswith(_NUMPY_GLOBAL_PREFIX)
                    and name not in _NUMPY_GLOBAL_OK
                ):
                    yield Violation(
                        "DET02", ctx.rel, node.lineno,
                        f"`{name}()` uses numpy's global RNG — use "
                        "`numpy.random.default_rng(seed)` instead",
                    )
                if name in ("os.getenv", "os.environ.get", "os.environ.pop",
                            "os.environ.setdefault", "os.putenv"):
                    var = _env_var_literal(node, consts)
                    if not _env_allowed(ctx.rel, var, repo.config.env_allowlist):
                        yield Violation(
                            "DET03", ctx.rel, node.lineno,
                            _env_message(name, var),
                        )
            # --- DET03: environ subscripts / mutation ---------------------
            elif isinstance(node, ast.Subscript):
                name = qualified_name(node.value, imports)
                if name == "os.environ":
                    var = _env_var_literal(node, consts)
                    if not _env_allowed(ctx.rel, var, repo.config.env_allowlist):
                        yield Violation(
                            "DET03", ctx.rel, node.lineno,
                            _env_message("os.environ[...]", var),
                        )


def _env_message(accessor: str, var: Optional[str]) -> str:
    named = f" of `${var}`" if var else ""
    return (
        f"environment read{named} via `{accessor}` outside the env "
        "allowlist — route config through an allowlisted seam "
        "(see tools/reprolint/manifest.json) so cached results cannot "
        "depend on unrecorded ambient state"
    )
