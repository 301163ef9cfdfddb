"""The benchmark's per-layer wrappers still find every name they wrap.

perfbench/layers.py wraps program functions where their callers look them
up; a program change that moves or renames one of those names breaks the
traced benchmark run, so this test installs and removes the full set.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture()
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    sys.modules.pop("layers", None)
    import layers
    yield layers
    sys.modules.pop("layers", None)


def test_full_wrapper_set_installs_and_restores(layers):
    recorder = layers.Recorder()
    recorder.install_light()
    recorder.install_full()
    patched = [(owner, attr, original)
               for owner, attr, original in recorder._restore]
    assert len(patched) > 20
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is not original
    recorder.restore()
    for owner, attr, original in patched:
        assert owner.__dict__[attr] is original
