import sys
from pathlib import Path

import pytest

# make the sibling oracle helpers importable regardless of invocation dir
sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def monodromy_builds(monkeypatch):
    """A list that gains the generator tuple of each monodromy group that
    ``ramify.cover`` builds."""
    import ramify.cover
    from ramify.perm import GeneratedGroup

    builds = []

    class Counted(GeneratedGroup):
        def __init__(self, degree, generators):
            generators = tuple(generators)
            builds.append(generators)
            super().__init__(degree, generators)

    monkeypatch.setattr(ramify.cover, "GeneratedGroup", Counted)
    return builds
