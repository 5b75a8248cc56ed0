"""JSON schemas for the CLI result files (gramian, reduce, compare)."""

_SOLVE_STATS = {
    "type": "object",
    "properties": {
        "d": {"type": "integer", "minimum": 1},
        "rank": {"type": "integer", "minimum": 0},
        "mu": {"type": "number", "minimum": 0},
        "stop": {"enum": ["converged", "exact_space"]},
        "seconds": {"type": "number", "minimum": 0},
    },
    "required": ["d", "rank", "mu", "stop"],
    "additionalProperties": False,
}

GRAMIAN_SUMMARY = {
    "type": "object",
    "properties": {
        "mode": {"enum": ["bt", "tlbt", "mtlbt"]},
        "t_s": {"type": ["number", "null"]},
        "t_e": {"type": ["number", "null"]},
        "reachability": _SOLVE_STATS,
        "observability": _SOLVE_STATS,
    },
    "required": ["mode"],
    "additionalProperties": False,
}

REDUCE_METADATA = {
    "type": "object",
    "properties": {
        "mode": {"enum": ["bt", "tlbt", "mtlbt"]},
        "r": {"type": "integer", "minimum": 1},
        "t_s": {"type": ["number", "null"]},
        "t_e": {"type": ["number", "null"]},
        "sigma": {"type": "array", "items": {"type": "number"}},
        "stable": {"enum": [0, 1]},
        "E_T": {"type": ["number", "null"]},
        "mu_p": {"type": ["number", "null"]},
        "mu_q": {"type": ["number", "null"]},
        "t_mor": {"type": ["number", "null"]},
        "feedthrough_retained": {"type": "boolean"},
    },
    "required": ["mode", "r", "sigma", "stable", "E_T"],
    "additionalProperties": False,
}

COMPARE_TABLE = {
    "type": "object",
    "properties": {
        "system": {"type": "string"},
        "input": {"enum": ["impulse", "step", "file"]},
        "t_s": {"type": "number"},
        "t_e": {"type": "number"},
        "dt": {"type": "number"},
        "t_f": {"type": "number"},
        "seed": {"type": "integer"},
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "properties": {
                    "mode": {"enum": ["bt", "tlbt", "mtlbt"]},
                    "r": {"type": "integer", "minimum": 1},
                    "E_T": {"type": "number"},
                    "stable": {"enum": [0, 1]},
                    "t_mor": {"type": "number"},
                },
                "required": ["mode", "r", "E_T", "stable"],
                "additionalProperties": False,
            },
        },
    },
    "required": ["system", "input", "t_e", "dt", "results"],
    "additionalProperties": False,
}
