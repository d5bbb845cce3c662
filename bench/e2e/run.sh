#!/usr/bin/env bash
# krs-bench: build, self-test and run the end-to-end benchmark. See README.md.
exec python3 "$(dirname "$0")/run.py" "$@"
