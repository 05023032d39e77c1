"""The repository's serving benchmark (see ``perfbench/README.md``)."""
