module qvisor/bench

go 1.22

require qvisor v0.0.0

replace qvisor => ../
