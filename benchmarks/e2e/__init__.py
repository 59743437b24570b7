"""End-to-end benchmark of the repro simulator, its CLI and its service.

Run ``python -m benchmarks.e2e --help``; see ``README.md`` beside this file.
"""
