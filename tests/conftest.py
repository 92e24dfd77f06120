"""Suite-wide setup.

When a property test fails, Hypothesis imports ``hypothesis.extra._patching``
to print its falsifying example as a patch, and that module imports
``libcst``, whose import warns (``mypy_extensions.TypedDict is
deprecated``). Under the suite's ``filterwarnings = ["error"]`` that
warning becomes an internal error that stops the whole session and loses
the example. Importing the module here, with its warnings silenced,
leaves the import warning-free when a failure needs it.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:  # Hypothesis without its patching extra
        pass
