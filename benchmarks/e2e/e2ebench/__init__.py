"""End-to-end benchmark of the Dissent reproduction (see ../README.md)."""
