package main

// Example runs the program and pins what it prints.
func Example() {
	main()
	// Output:
	// sequential: 0.419430s
	// n=2: tmk 0.223495s (46 msgs)  pvm 0.212523s (8 msgs)
	// n=4: tmk 0.131815s (222 msgs)  pvm 0.110129s (48 msgs)
	// n=8: tmk 0.095268s (910 msgs)  pvm 0.061908s (224 msgs)
	// tmk on 1KB pages: 0.121112s (910 msgs)
	// all versions agree
}
