fn demo() {
    let total_secs = kv_bytes(4096);
    let mut peak_bytes = elapsed_secs();
    let weights_bytes = param_bytes(12);
    let t_secs = compute(kv_bytes(1));
    let plain = kv_bytes(1);
    let _ = (total_secs, peak_bytes, weights_bytes, t_secs, plain);
}
