"""Every output byte against the committed snapshot, tests/snapshot.golden."""

from pathlib import Path

import snapshot

GOLDEN = Path(__file__).resolve().parent / "snapshot.golden"


def _by_artifact(lines: list[str]) -> dict[str, str]:
    return dict(line.split(" ", 1) for line in lines)


def test_outputs_match_the_golden_snapshot():
    header, *golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    lines = snapshot.snapshot()
    if lines == golden:
        return
    want, got = _by_artifact(golden), _by_artifact(lines)
    differ = sorted(a for a in want.keys() | got.keys() if want.get(a) != got.get(a))
    detail = "\n".join(f"  {a}: {want.get(a, '(absent)')} -> {got.get(a, '(absent)')}" for a in differ)
    raise AssertionError(
        f"{len(differ)} of {len(want)} artifacts differ from {GOLDEN.name}"
        + (f":\n{detail}" if differ else " only in their order")
        + f"\ngolden made with {header.lstrip('# ')}; this run: {snapshot.versions()}"
        + "\non another machine or numpy build this is a finding; see README on regenerating the file"
    )
