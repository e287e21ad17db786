pub fn raw_param(latency: f64) -> Secs {
    Secs::new(latency)
}
pub fn raw_return(t: Secs) -> f64 {
    t.as_secs()
}
pub struct Widget;
impl Widget {
    pub fn method_with_raw(&self, bandwidth: f64) -> Secs {
        Secs::new(bandwidth)
    }
    pub(crate) fn internal(efficiency: f64) -> f64 {
        efficiency
    }
    fn private(efficiency: f64) -> f64 {
        efficiency
    }
}
pub fn typed(t: Secs, b: Bytes) -> BytesPerSec {
    b / t
}
pub fn slowed(factor: f64) -> Secs {
    Secs::new(factor)
}
pub fn efficiency_of(f: Flops) -> f64 {
    f.as_f64()
}
