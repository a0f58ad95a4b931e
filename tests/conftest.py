import pytest


@pytest.fixture(autouse=True)
def no_guard_override(monkeypatch):
    """Run every test under the default resource limits, whatever the caller's
    environment holds; a test that needs FGL_MAX_TERMS sets it itself."""
    monkeypatch.delenv("FGL_MAX_TERMS", raising=False)
