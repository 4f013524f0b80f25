"""CI's obs-smoke script (``scripts/obs_smoke.py``) with a relative
``--out-dir``, the form CI passes.

The kill-and-replay check runs its child in the script's own directory,
so the journal the child writes must still land where the parent reads
it, whatever directory the script was started from.
"""

import importlib.util
import os
import sys

_SCRIPTS = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), os.pardir, os.pardir, "scripts"
)


def _load_obs_smoke():
    # The script imports its sibling ``obs_report`` by name.
    sys.path.insert(0, _SCRIPTS)
    try:
        spec = importlib.util.spec_from_file_location(
            "obs_smoke_script", os.path.join(_SCRIPTS, "obs_smoke.py")
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(_SCRIPTS)
    return module


def test_relative_out_dir_passes_kill_and_replay(tmp_path, monkeypatch):
    obs_smoke = _load_obs_smoke()
    later_checks = []
    for name in ("check_hazard_forensics", "check_chaos_correlation", "check_cli"):
        monkeypatch.setattr(obs_smoke, name, later_checks.append)
    monkeypatch.chdir(tmp_path)

    assert obs_smoke.main(["--out-dir", "obs-smoke-out"]) == 0

    out_dir = tmp_path / "obs-smoke-out"
    assert os.path.isfile(out_dir / "journal-killed.jsonl")
    assert len(later_checks) == 3
    for path in later_checks:
        assert os.path.isabs(path) and os.path.samefile(path, out_dir)
