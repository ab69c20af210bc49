import importlib.util
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)


def _digests(manifest: bytes) -> dict[str, str]:
    """A manifest's lines keyed by what they describe: each `file:` line by
    its file name, every other line by its field."""
    entries = {}
    for line in manifest.decode().splitlines():
        field, _, value = line.partition(": ")
        if field == "file":
            field, _, value = value.partition(" ")
        entries[field] = value
    return entries


def _changes(name: str, want: bytes, got: bytes) -> list[str]:
    """One line per file (or manifest field, or verify case) whose bytes changed."""
    if name == "verify.txt":
        pairs = zip(golden.VERIFY, want.decode().splitlines(), got.decode().splitlines())
        return [f"verify {o} --dims {d}: {w!r} -> {g!r}" for (o, d), w, g in pairs if w != g] or [f"{name}: line count"]
    run = name.removesuffix(".manifest.txt")
    old, new = _digests(want), _digests(got)
    keys = sorted(old.keys() | new.keys())
    return [f"{run}: {key} {old.get(key)} -> {new.get(key)}" for key in keys if old.get(key) != new.get(key)]


def test_outputs_equal_the_goldens(tmp_path):
    # the CSV contract: every command's manifest (a sha256 per CSV) and the
    # verify lines, at seed 1, as tests/golden/regenerate.py wrote them
    found = golden.outputs(tmp_path)
    assert {p.name for p in GOLDEN.glob("*.txt")} - {"platform.txt"} == found.keys()
    changed = []
    for name, got in found.items():
        want = (GOLDEN / name).read_bytes()
        if got != want:
            changed += _changes(name, want, got)
    made, here = (GOLDEN / "platform.txt").read_text().strip(), golden.platform_record().strip()
    assert not changed, f"outputs differ from the goldens (made with {made}; this run: {here}):\n" + "\n".join(changed)
