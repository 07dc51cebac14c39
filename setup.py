"""Shim for legacy editable installs (offline host lacks the wheel package).

Packaging is pinned explicitly so runtime artifacts can never ride
along into a distribution: the train-on-first-use model checkpoints
(``repro/models/_cache/``) and the memoized scenario results
(``repro/eval/_cache/``) live *inside* package directories, and
namespace-package auto-discovery with default package data would
happily ship gigabytes of a developer's local cache.  Both are
.gitignored; this keeps them out of wheels/sdists too.
"""
from setuptools import find_namespace_packages, setup

setup(
    package_dir={"": "src"},
    packages=find_namespace_packages(
        "src", exclude=["*._cache", "*._cache.*"]),
    include_package_data=False,
    exclude_package_data={"": ["_cache/*", "_cache/**", "*.json"]},
    # What the tier-1 suite imports beyond numpy (CI's tier1 job
    # installs the same list).
    extras_require={"test": ["pytest", "pytest-benchmark", "hypothesis"]},
)
