//! `ccdb-benchmark`: see the library crate and `benchmark/README.md`.

fn main() -> std::process::ExitCode {
    ccdb_benchmark::main_from_env()
}
