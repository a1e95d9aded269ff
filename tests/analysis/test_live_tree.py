"""Meta-tests: the shipped tree itself passes its own analyzer."""

import tokenize

from repro.analysis.source import _ALLOW_RE

from tests.analysis.conftest import LIVE_ROOT


def test_every_source_file_parses(live_report):
    assert live_report.errors == ()


def test_live_tree_is_clean(live_report):
    assert live_report.findings == (), "analyzer findings:\n" + "\n".join(
        f"  {f.location}: {f.rule} {f.message}" for f in live_report.findings
    )


def test_live_tree_has_reasoned_suppressions(live_report):
    # Every inline suppression in the shipped tree must carry a reason;
    # a bare allow comment is a smell the fixtures should not normalise.
    allows = []
    for path in sorted(LIVE_ROOT.rglob("*.py")):
        with tokenize.open(path) as handle:
            for token in tokenize.generate_tokens(handle.readline):
                match = _ALLOW_RE.search(token.string)
                if token.type == tokenize.COMMENT and match is not None:
                    allows.append((path.relative_to(LIVE_ROOT), token.start[0], match))
    unreasoned = [
        f"{rel}:{line}"
        for rel, line, match in allows
        if not match.group("reason").strip()
    ]
    assert not unreasoned, "allow comments without a reason: " + ", ".join(
        unreasoned
    )
    assert len(allows) >= 10  # the audited sites
    assert len(live_report.suppressed) >= 10


def test_analyzer_sees_the_whole_package(live_report):
    assert live_report.file_count >= 75
