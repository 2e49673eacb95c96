import pytest

from leobeams.config import SceneConfig, build_scene


@pytest.fixture(scope="session")
def scene():
    """Reference scene with the default configuration."""
    return build_scene(SceneConfig())
