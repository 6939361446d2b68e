"""numpy for `codecs` and `losses`, loaded on its first attribute access.

The CLI imports both modules for its parser choices, so `eval`, `iou` and
`nms` would otherwise pay numpy's import without using it. Take the module
as `from ._numpy import np`: `import numpy` reads `__spec__`, which loads it.
"""

import importlib.util
import sys


def _lazy_numpy():
    if "numpy" in sys.modules:
        return sys.modules["numpy"]
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


np = _lazy_numpy()
