"""The repository's one gated benchmark (see README.md beside this file)."""
