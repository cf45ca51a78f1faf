"""End-to-end benchmark of the select + solve system (see README.md)."""
