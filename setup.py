"""Build script: compiles the optional bit-kernel extension from the
hand-written C in `src/pentaplanar/_fastkern.c`.

The package works without it (the pure-Python kernels are picked at import
time), so the extension is optional: a failed compile leaves a pure-Python
install.  `python setup.py build_ext --inplace` builds it next to the
sources.
"""

from setuptools import Extension, setup

setup(
    ext_modules=[
        Extension("pentaplanar._fastkern", ["src/pentaplanar/_fastkern.c"], optional=True)
    ]
)
