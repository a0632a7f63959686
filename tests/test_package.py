import dwsim


def test_every_public_name_resolves():
    missing = [name for name in dwsim.__all__ if not hasattr(dwsim, name)]
    assert not missing
    namespace = {}
    exec("from dwsim import *", namespace)
    assert set(dwsim.__all__) <= set(namespace)
