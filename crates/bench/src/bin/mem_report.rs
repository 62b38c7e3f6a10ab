//! Regenerate `BENCH_mem.json`: retained-vs-checkpointed peak tape
//! memory on the three golden fixtures. See `mg_bench::memreport`.

fn main() {
    std::process::exit(mg_bench::report::emit("mem", mg_bench::memreport::run));
}
