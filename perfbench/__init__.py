"""The repository's single performance benchmark (see ``perfbench/README.md``)."""
