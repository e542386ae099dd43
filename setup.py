"""Build hooks for the optional compiled kernel.

The package is pure Python plus one optional Cython extension holding the
dense polynomial kernels.  If Cython or a C compiler is missing the build
falls back silently to the pure-Python kernels.
"""

from setuptools import Extension, setup
from setuptools.command.build_ext import build_ext


class OptionalBuildExt(build_ext):
    def run(self):
        try:
            super().run()
        except Exception as exc:  # compiler missing, etc.
            print(f"tiltlab: skipping compiled kernels ({exc!r})")

    def build_extension(self, ext):
        try:
            super().build_extension(ext)
        except Exception as exc:
            print(f"tiltlab: skipping {ext.name} ({exc!r})")


ext_modules = []
try:
    from Cython.Build import cythonize

    ext_modules = cythonize(
        [Extension("tiltlab._kernels", ["src/tiltlab/_kernels.pyx"])],
        compiler_directives={"language_level": "3"},
    )
except ImportError:
    pass

setup(ext_modules=ext_modules, cmdclass={"build_ext": OptionalBuildExt})
