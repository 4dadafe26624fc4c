"""Tier-1 wrapper for reprolint: rule battery fixtures + repo self-check.

Each rule group gets a paired good/bad fixture under
``tests/fixtures/reprolint/`` — the bad fixture proves the rule fires, the
good one proves it stays quiet — and the committed tree itself must lint
clean with zero unexplained suppressions (the CI ``static-analysis`` gate,
run here so a violation fails the PR's tier-1 leg too).
"""

import json
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

import tools.reprolint.rules  # noqa: E402,F401  (registers the battery)
from tools.reprolint.core import (  # noqa: E402
    LintConfig,
    RepoContext,
    run_lint,
    run_rules,
)
from tools.reprolint.rules.fingerprint import field_set_digest  # noqa: E402

FIXTURES = "tests/fixtures/reprolint"


def lint(paths, groups, manifest=None, fingerprint=None):
    """Run ``groups`` over fixture ``paths`` with a synthetic config."""
    config = LintConfig(manifest or {}, fingerprint or {})
    repo = RepoContext(REPO_ROOT, config, rel_paths=list(paths))
    return run_rules(repo, groups)


def codes(result):
    return [v.code for v in result.violations]


# ------------------------------------------------------------- determinism
class TestDeterminismRule:
    def test_bad_fixture_fires_every_code(self):
        result = lint([f"{FIXTURES}/det_bad.py"], ["determinism"])
        found = codes(result)
        assert "DET01" in found  # time.time()
        assert "DET03" in found  # os.environ.get
        assert found.count("DET02") == 2  # random.randint + unseeded rng

    def test_good_fixture_is_clean(self):
        result = lint([f"{FIXTURES}/det_good.py"], ["determinism"])
        assert codes(result) == []

    def test_allowlist_admits_named_var_only(self):
        allow = {"env_allowlist": {
            f"{FIXTURES}/det_bad.py": {"vars": ["NOT_ALLOWLISTED"],
                                       "reason": "test"},
        }}
        result = lint([f"{FIXTURES}/det_bad.py"], ["determinism"],
                      manifest=allow)
        assert "DET03" not in codes(result)

    def test_wallclock_allowlist(self):
        allow = {"wallclock_allowlist": {f"{FIXTURES}/det_bad.py": "test"}}
        result = lint([f"{FIXTURES}/det_bad.py"], ["determinism"],
                      manifest=allow)
        assert "DET01" not in codes(result)


# --------------------------------------------------------- order-iteration
class TestOrderIterationRule:
    def test_bad_fixture_flags_values_and_set_literal(self):
        result = lint([f"{FIXTURES}/ord_bad.py"], ["order-iteration"])
        assert codes(result) == ["ORD01", "ORD01", "ORD01"]

    def test_plain_class_defining_tick_is_in_scope(self):
        """A class that is no Component but defines ``tick`` (one half of
        a fused stage) is on the tick path too."""
        result = lint([f"{FIXTURES}/ord_bad.py"], ["order-iteration"])
        flagged = [v.message for v in result.violations
                   if "`FusedStageHalf`" in v.message]
        assert len(flagged) == 1 and ".keys() of a dict" in flagged[0]

    def test_sorted_wrapper_and_list_iteration_pass(self):
        result = lint([f"{FIXTURES}/ord_good.py"], ["order-iteration"])
        assert codes(result) == []


# ----------------------------------------------------------------- hot-path
class TestHotPathRules:
    def test_bad_fixture(self):
        manifest = {"hot_modules": [f"{FIXTURES}/hot_bad.py"]}
        result = lint([f"{FIXTURES}/hot_bad.py"], ["hot-path"],
                      manifest=manifest)
        found = codes(result)
        assert found.count("HOT01") == 1  # Beat only; Component has slots
        assert found.count("HOT02") == 2  # explicit None + fall-through

    def test_good_fixture_is_clean(self):
        manifest = {"hot_modules": [f"{FIXTURES}/hot_good.py"]}
        result = lint([f"{FIXTURES}/hot_good.py"], ["hot-path"],
                      manifest=manifest)
        assert codes(result) == []

    def test_slots_only_enforced_in_hot_modules(self):
        result = lint([f"{FIXTURES}/hot_bad.py"], ["hot-path"], manifest={})
        assert "HOT01" not in codes(result)


# -------------------------------------------------------------- fingerprint
def _fpr_manifest(module, fields, schema=3, digest_fields=None, extra=None):
    entry = {
        "module": module,
        "coverage": "explicit",
        "fields": fields,
        "exempt": {"verify": "checking results never changes them (test)"},
    }
    if extra:
        entry.update(extra)
    covered = {"MiniSpec": sorted(digest_fields or [])}
    return {
        "schema_version": schema,
        "spec_module": module,
        "classes": {"MiniSpec": entry},
        "digest_history": {str(schema): field_set_digest(covered)},
    }


class TestFingerprintRules:
    GOOD = f"{FIXTURES}/fpr_good.py"
    BAD = f"{FIXTURES}/fpr_bad.py"

    def test_good_fixture_is_clean(self):
        fp = _fpr_manifest(self.GOOD, ["size", "mode"],
                           digest_fields=["size", "mode"])
        assert codes(lint([], ["fingerprint"], fingerprint=fp)) == []

    def test_uncovered_field_and_unread_field(self):
        # Manifest claims `mode` covered and knows nothing about `latency`.
        fp = _fpr_manifest(self.BAD, ["size", "mode"],
                           digest_fields=["size", "mode"])
        found = codes(lint([], ["fingerprint"], fingerprint=fp))
        assert "FPR01" in found  # latency uncovered
        assert "FPR04" in found  # mode never read in fingerprint()
        assert "FPR05" in found  # field-set drifted from the pinned digest

    def test_stale_manifest_field(self):
        fp = _fpr_manifest(self.GOOD, ["size", "mode", "gone"],
                           digest_fields=["size", "mode"])
        assert "FPR02" in codes(lint([], ["fingerprint"], fingerprint=fp))

    def test_schema_version_mismatch(self):
        fp = _fpr_manifest(self.GOOD, ["size", "mode"], schema=99,
                           digest_fields=["size", "mode"])
        found = codes(lint([], ["fingerprint"], fingerprint=fp))
        assert "FPR03" in found

    def test_field_set_change_without_bump(self):
        # Pin a digest for a *smaller* field-set than the code declares.
        fp = _fpr_manifest(self.GOOD, ["size", "mode"],
                           digest_fields=["size"])
        assert "FPR05" in codes(lint([], ["fingerprint"], fingerprint=fp))


# -------------------------------------------------------------- deprecation
class TestDeprecationRule:
    def test_import_and_use_both_flagged(self):
        manifest = {"deprecated_names": {
            "MemoryError_": "use MemoryAccessError",
        }}
        result = lint([f"{FIXTURES}/dep_bad.py"], ["deprecation"],
                      manifest=manifest)
        assert codes(result).count("DEP01") >= 2
        assert "MemoryAccessError" in result.violations[0].message

    def test_committed_tree_carries_the_real_tombstone(self):
        config = LintConfig.load(REPO_ROOT)
        assert "MemoryError_" in config.deprecated


# ------------------------------------------------------------- suppressions
class TestSuppressionMeta:
    def test_reasonless_and_unused_suppressions_are_violations(self):
        result = lint([f"{FIXTURES}/sup_bad.py"], ["determinism"])
        found = codes(result)
        assert "SUP01" in found  # disable=DET01 with no reason
        assert "SUP02" in found  # disable=DET02 suppressing nothing
        assert "DET01" not in found  # ... but the suppression still applies

    def test_explained_suppression_is_reported_not_hidden(self):
        result = lint([f"{FIXTURES}/sup_good.py"], ["determinism"])
        assert codes(result) == []
        assert [v.code for v in result.suppressed] == ["DET01"]
        assert result.suppressed[0].reason is not None


# -------------------------------------------------------------------- docs
class TestDocsRule:
    def test_undocumented_surface_detected(self):
        import argparse

        from tools.reprolint.rules.docs import check_cli_documented

        parser = argparse.ArgumentParser(prog="repro")
        sub = parser.add_subparsers(dest="command")
        zap = sub.add_parser("zap")
        zap.add_argument("--boom", action="store_true")
        missing = check_cli_documented(parser, "docs mention nothing")
        assert missing == [
            "subcommand 'repro zap' not documented",
            "flag '--boom' (repro zap) not documented",
        ]


# ------------------------------------------------------------- whole-repo
class TestCommittedTree:
    def test_committed_tree_lints_clean(self):
        """The CI gate: zero violations, zero unexplained suppressions."""
        result = run_lint(REPO_ROOT)
        assert [v.render() for v in result.violations] == []
        assert all(v.reason for v in result.suppressed)
        assert result.exit_code == 0

    def test_json_report_shape(self):
        result = run_lint(REPO_ROOT, rule_names=["hot-path"])
        data = json.loads(json.dumps(result.to_dict()))
        assert data["version"] == 1
        assert data["exit_code"] == result.exit_code
        assert data["counts"]["violations"] == len(data["violations"])
        assert data["counts"]["suppressed"] == len(data["suppressed"])

    def test_cli_json_output(self, capsys):
        from tools.reprolint.cli import main

        status = main(["--root", str(REPO_ROOT), "--json"])
        data = json.loads(capsys.readouterr().out)
        assert status == data["exit_code"] == 0
        assert data["counts"]["violations"] == 0

    def test_unknown_rule_group_is_a_config_error(self, capsys):
        from tools.reprolint.cli import main

        assert main(["--root", str(REPO_ROOT), "--rules", "nope"]) == 2
        assert "unknown rule group" in capsys.readouterr().err
