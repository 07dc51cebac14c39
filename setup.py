"""Shim for legacy editable installs (offline host lacks the wheel package).

Packaging is pinned explicitly so runtime artifacts can never ride
along into a distribution: the train-on-first-use model checkpoints
(``repro/models/_cache/``) and the memoized scenario results
(``repro/eval/_cache/``) live *inside* package directories, and
namespace-package auto-discovery with default package data would
happily ship gigabytes of a developer's local cache.  Both are
.gitignored; this keeps them out of wheels/sdists too.

Set ``REPRO_KERNEL_COMPILE=1`` to mypyc-compile the kernel engine
(``repro/netsim/kernel.py``) during the build.  The flag is opt-in and
soft: without mypyc installed (this offline host), or without the flag,
the same module installs as pure Python and runs identically -- the
compiled build is a CI/perf concern, never a correctness one
(``KERNEL_COMPILED`` reports which build is live).
"""
import os

from setuptools import find_namespace_packages, setup

ext_modules = []
if os.environ.get("REPRO_KERNEL_COMPILE") == "1":
    try:
        from mypyc.build import mypycify
    except ImportError:
        print("REPRO_KERNEL_COMPILE=1 set but mypyc is not installed; "
              "building the pure-Python kernel instead")
    else:
        ext_modules = mypycify(
            ["src/repro/netsim/kernel.py"],
            opt_level="3",
            multi_file=False,
        )

setup(
    package_dir={"": "src"},
    packages=find_namespace_packages(
        "src", exclude=["*._cache", "*._cache.*"]),
    include_package_data=False,
    exclude_package_data={"": ["_cache/*", "_cache/**", "*.json"]},
    ext_modules=ext_modules,
    # What the tier-1 suite imports beyond numpy (CI's tier1 job
    # installs the same list).
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
)
