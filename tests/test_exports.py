"""The package's public names must all resolve.

``from cotune import *`` looks up every name in ``cotune.__all__``; a stale
entry for a deleted function fails there, at the user's import, and in no
test that imports names one by one.
"""

import cotune


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from cotune import *", namespace)
    assert set(cotune.__all__) <= set(namespace)
