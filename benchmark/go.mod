module adarnet/benchmark

go 1.22

require adarnet v0.0.0

replace adarnet => ../
