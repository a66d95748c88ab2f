"""Make the self-tests import the checkout's ``src/repro`` like ``run.py`` does."""

import run

run.bootstrap()
