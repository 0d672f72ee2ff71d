"""Packaging for the DPO-AF reproduction (no network access required)."""

import re
from pathlib import Path

from setuptools import find_packages, setup

# Single source of truth: repro.__version__.
_init = Path(__file__).parent / "src" / "repro" / "__init__.py"
VERSION = re.search(r'^__version__ = "([^"]+)"', _init.read_text(), re.MULTILINE).group(1)

setup(
    name="repro-dpoaf",
    version=VERSION,
    description=(
        "Reproduction of 'Fine-Tuning Language Models Using Formal Methods "
        "Feedback' (DPO-AF, MLSys 2024) with a batched feedback-serving subsystem"
    ),
    long_description=(
        "A from-scratch Python reproduction of the DPO-AF loop: GLM2FSA "
        "controller construction, LTL model checking, a Carla-substitute "
        "simulator, a numpy language model with LoRA/DPO training, and a "
        "batched, cached feedback-serving service (repro.serving) for "
        "high-throughput controller verification."
    ),
    long_description_content_type="text/plain",
    author="paper-repo-growth",
    license="MIT",
    python_requires=">=3.10",
    package_dir={"": "src"},
    packages=find_packages(where="src"),
    install_requires=[
        "numpy",
        "networkx",
    ],
    entry_points={
        "console_scripts": [
            "repro-serve=repro.serving.cli:main",
            "repro-trace=repro.obs.cli:main",
            "repro-lint=repro.analysis.cli:main",
        ],
    },
    classifiers=[
        "Development Status :: 4 - Beta",
        "Intended Audience :: Science/Research",
        "Programming Language :: Python :: 3",
        "Topic :: Scientific/Engineering :: Artificial Intelligence",
    ],
)
