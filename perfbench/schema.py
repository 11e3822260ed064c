"""JSON schemas of the result line ``run.py`` prints and of its results file."""

NUMBER = {"type": "number"}

RESULT_LINE = {
    "type": "object",
    "required": ["correct", "attempted", "failed", "metrics"],
    "additionalProperties": False,
    "properties": {
        "correct": {"type": "boolean"},
        "attempted": {"type": "integer", "minimum": 1},
        "failed": {"type": "integer", "minimum": 0},
        "metrics": {
            "type": "object",
            "minProperties": 1,
            "additionalProperties": {
                "type": "object",
                "required": ["value", "unit"],
                "additionalProperties": False,
                "properties": {"value": NUMBER, "unit": {"type": "string"}},
            },
        },
    },
}

RESULTS_FILE = {
    "type": "object",
    "required": ["benchmark", "workload", "seed", "seconds", "trace", "size", "environment",
                 "config", "result", "workload_metrics", "samples", "digests", "checks",
                 "errors", "warnings", "spans_file"],
    "additionalProperties": False,
    "properties": {
        "benchmark": {"const": "melodygen"},
        "workload": {"enum": ["train", "generate", "evaluate"]},
        "seed": {"type": "integer"},
        "seconds": NUMBER,
        "trace": {"enum": [0, 1]},
        "size": {"enum": ["full", "tiny"]},
        "environment": {
            "type": "object",
            "required": ["nproc", "blas", "numpy", "python", "platform", "git_commit", "seed"],
            "properties": {
                "nproc": {"type": "integer", "minimum": 1},
                "blas": {
                    "type": "object",
                    "required": ["name", "version", "threads", "env"],
                    "properties": {"threads": {"type": ["integer", "null"]}},
                },
                "numpy": {"type": "string"},
                "python": {"type": "string"},
                "git_commit": {"type": ["string", "null"]},
                "seed": {"type": "integer"},
            },
        },
        "config": {"type": "object", "required": ["seed", "corpus", "diffusion"]},
        "result": RESULT_LINE,
        "workload_metrics": {"type": "object", "additionalProperties": NUMBER},
        "samples": {
            "type": "object",
            "required": ["setup_s", "op_s", "ops_attempted"],
            "properties": {
                "setup_s": {"type": "array", "items": NUMBER, "minItems": 1},
                "op_s": {"type": "array", "items": NUMBER},
                "traced_op_s": {"type": "array", "items": NUMBER},
                "ops_attempted": {"type": "integer", "minimum": 1},
            },
        },
        "digests": {"type": "object"},
        "checks": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["name", "ok", "detail"],
                "additionalProperties": False,
                "properties": {"name": {"type": "string"}, "ok": {"type": "boolean"},
                               "detail": {"type": "string"}},
            },
        },
        "errors": {"type": "array", "items": {"type": "string"}},
        "warnings": {"type": "array", "items": {"type": "string"}},
        "spans_file": {"type": ["string", "null"]},
    },
}
